// Quickstart: build the paper's Figure 1 financial graph, tune the
// primary A+ index with the DDL from Section III, create the secondary
// indexes of Examples 6 and 7, run the running-example queries, and
// serve a prepared parameterized query through the Session API.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/database.h"
#include "datagen/example_graph.h"

using namespace aplus;  // NOLINT: example brevity

int main() {
  // 1. Build the Figure 1 graph: 5 Account + 3 Customer vertices, 5 Owns
  //    edges and 20 Wire / Dir-Deposit transfers with amount, currency,
  //    and date properties.
  ExampleGraph ex = BuildExampleGraph();
  label_t account = ex.account_label;
  label_t customer = ex.customer_label;
  label_t owns = ex.owns_label;
  label_t wire = ex.wire_label;
  prop_key_t currency = ex.currency_key;
  Database db(std::move(ex.graph));
  db.graph().catalog().RegisterCategoryValue(currency, "USD");
  db.graph().catalog().RegisterCategoryValue(currency, "EUR");
  db.graph().catalog().RegisterCategoryValue(currency, "GBP");

  // 2. Build the mandatory primary A+ indexes (forward + backward),
  //    default config: partitioned by edge label, sorted by neighbour ID.
  double seconds = db.BuildPrimaryIndexes();
  std::printf("primary A+ indexes built in %.3f ms (%zu bytes)\n", seconds * 1e3,
              db.IndexMemoryBytes());

  // 3. Example 1: MATCH c1-[r1]->a1-[r2]->a2 WHERE c1.name = 'Alice'.
  //    (Alice is v7; we bind her directly instead of a name scan.)
  QueryGraph two_hop;
  int c1 = two_hop.AddVertex("c1", customer, ex.customers[1]);
  int a1 = two_hop.AddVertex("a1", account);
  int a2 = two_hop.AddVertex("a2", account);
  two_hop.AddEdge(c1, a1, owns, "r1");
  two_hop.AddEdge(a1, a2, wire, "r2");
  QueryOutcome r = db.Execute(two_hop);
  std::printf("\nExample 2 (Alice's wire destinations): %llu matches in %.3f ms\nplan:\n%s\n",
              static_cast<unsigned long long>(r.count), r.seconds * 1e3,
              db.Explain(two_hop).c_str());

  // 4. Section III-A1: reconfigure the primary index so currency-equality
  //    queries read a nested partition directly (Example 4).
  DdlResult reconf = db.ExecuteDdl(
      "RECONFIGURE PRIMARY INDEXES "
      "PARTITION BY eadj.label, eadj.currency "
      "SORT BY vnbr.ID");
  std::printf("%s (%.3f ms)\n", reconf.message.c_str(), reconf.seconds * 1e3);

  QueryGraph usd_wires = two_hop;
  QueryComparison usd;
  usd.lhs = QueryPropRef{1, true, currency, false};
  usd.op = CmpOp::kEq;
  usd.rhs_const = Value::Category(0);
  usd_wires.AddPredicate(usd);
  r = db.Execute(usd_wires);
  std::printf("Example 4 (USD wires only): %llu matches\nplan:\n%s\n",
              static_cast<unsigned long long>(r.count), db.Explain(usd_wires).c_str());

  // 5. Example 6: a secondary vertex-partitioned index over a 1-hop view.
  DdlResult vp = db.ExecuteDdl(
      "CREATE 1-HOP VIEW LargeUSDTrnx "
      "MATCH vs-[eadj]->vd "
      "WHERE eadj.currency=USD, eadj.amount>100 "
      "INDEX AS FW-BW PARTITION BY eadj.label SORT BY vnbr.ID");
  std::printf("%s (%.3f ms)\n", vp.message.c_str(), vp.seconds * 1e3);

  // 6. Example 7: the MoneyFlow edge-partitioned index.
  DdlResult ep = db.ExecuteDdl(
      "CREATE 2-HOP VIEW MoneyFlow "
      "MATCH vs-[eb]->vd-[eadj]->vnbr "
      "WHERE eb.date<eadj.date, eadj.amount<eb.amount "
      "INDEX AS PARTITION BY eadj.label SORT BY vnbr.ID");
  std::printf("%s (%.3f ms)\n", ep.message.c_str(), ep.seconds * 1e3);

  // t13's MoneyFlow adjacency — the paper's Example 7 says it contains
  // exactly one edge, t19.
  EpIndex* money_flow = db.index_store().FindEpIndex("MoneyFlow");
  AdjListSlice t13_list = money_flow->GetFullList(ex.transfers[12]);
  std::printf("\nMoneyFlow list of t13 has %u edge(s):", t13_list.size());
  for (uint32_t i = 0; i < t13_list.size(); ++i) {
    std::printf(" t%llu", static_cast<unsigned long long>(t13_list.EdgeAt(i) - ex.transfers[0] + 1));
  }
  std::printf("  (paper: exactly {t19})\n");

  // 7. The serving API: prepare once, bind + execute per request. The
  //    $src pin is patched straight into the cached plan (no re-parse,
  //    no re-optimization) and projected rows stream in typed batches.
  struct PrintRows : RowConsumer {
    void OnBatch(const RowBatch& batch) override {
      for (uint32_t row = 0; row < batch.num_rows(); ++row) {
        std::printf("  row:");
        for (size_t col = 0; col < batch.num_columns(); ++col) {
          std::printf(" %s=%s", batch.column(col).name.c_str(),
                      batch.Cell(col, row).ToString().c_str());
        }
        std::printf("\n");
      }
    }
  } printer;
  Session session(&db);
  PreparedQuery* wires_of = session.Prepare(
      "MATCH (a1:Account)-[r:W]->(a2:Account) WHERE a1.ID = $src "
      "RETURN a2, r.amount, r.currency LIMIT 5");
  if (!wires_of->ok()) {
    std::printf("prepare failed: %s\n", wires_of->error().c_str());
    return 1;
  }
  for (vertex_id_t src : {ex.accounts[0], ex.accounts[3]}) {
    std::printf("\nwires out of v%u (prepared, LIMIT 5):\n", src + 1);
    wires_of->Bind("src", Value::Int64(src));
    QueryOutcome out = wires_of->Execute(&printer);
    std::printf("  -> %llu row(s) in %.3f ms\n",
                static_cast<unsigned long long>(out.rows), out.seconds * 1e3);
  }

  std::printf("\ntotal index memory: %zu bytes\n", db.IndexMemoryBytes());
  return 0;
}
