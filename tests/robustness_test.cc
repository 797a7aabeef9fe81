// Query-lifecycle robustness tests: every non-OK QueryOutcome status the
// serving layer can produce (TIMEOUT, CANCELLED, RESOURCE_EXHAUSTED,
// OVERLOADED) is exercised at 1 and 4 worker threads, plus cancellation
// from another thread mid-execute, re-execute-after-failure against a
// fresh-database oracle, and the fault-injection points (util/fault.h)
// at allocation, ingest, delta-merge and pool-dispatch. The invariant
// throughout: a failed execute leaves the Session/Database fully
// reusable — the next execute on the same prepared plan must equal a
// database that never failed.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/admission.h"
#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "row_collector.h"
#include "util/deadline.h"
#include "util/fault.h"
#include "util/memory_tracker.h"
#include "util/rng.h"
#include "test_threads.h"

namespace aplus {
namespace {

using Status = QueryOutcome::Status;

// A power-law graph with an embedded dense clique: the clique gives the
// multi-hop enumeration queries a combinatorial region big enough that a
// 4-thread run still takes long past any deadline we arm.
constexpr uint64_t kBaseVertices = 400;
constexpr uint64_t kCliqueVertices = 70;

Graph MakeGraph() {
  Graph graph;
  PowerLawParams params;
  params.num_vertices = kBaseVertices;
  params.avg_degree = 4.0;
  params.seed = 29;
  GeneratePowerLawGraph(params, &graph);
  label_t elabel = graph.catalog().FindEdgeLabel("E");
  // Dense clique over the first vertices: ~kCliqueVertices^2 extra edges.
  for (vertex_id_t u = 0; u < kCliqueVertices; ++u) {
    for (vertex_id_t v = 0; v < kCliqueVertices; ++v) {
      if (u != v) graph.AddEdge(u, v, elabel);
    }
  }
  return graph;
}

// Long-running enumeration: 4 hops through the clique region explode
// combinatorially (~70^4 partial bindings from any clique source).
constexpr const char* kHeavyText =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)-[r3:E]->(d)-[r4:E]->(e) RETURN b, e";
// Same shape with a grouped aggregate, so the sink runs the staged
// (merge + Finish) path.
constexpr const char* kHeavyAggText =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c)-[r3:E]->(d) RETURN b, COUNT(*)";
// A quick query every thread can finish comfortably.
constexpr const char* kLightText = "MATCH (a)-[r1:E]->(b) WHERE a.ID = 3 RETURN b";
// ORDER BY over the full 2-hop row set: the sort arena charges the
// memory budget proportionally to the enumerated rows.
constexpr const char* kSortText =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, c ORDER BY c LIMIT 10";

class RobustnessTest : public ::testing::Test {
 protected:
  RobustnessTest() {
    db_ = std::make_unique<Database>(MakeGraph());
    db_->BuildPrimaryIndexes();
    session_ = std::make_unique<Session>(db_.get());
  }
  ~RobustnessTest() override { fault::Clear(); }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
};

// Sanity floor for every partial-progress assertion below: the heavy
// query must genuinely outlast the deadlines we arm. One serial probe
// with a 50 ms deadline has to hit it.
TEST_F(RobustnessTest, HeavyQueryOutlastsDeadline) {
  PreparedQuery* q = session_->Prepare(kHeavyText);
  ASSERT_TRUE(q->ok()) << q->error();
  q->set_deadline_millis(50);
  QueryOutcome out = q->Execute(nullptr, 1);
  ASSERT_EQ(out.status, Status::kTimeout) << out.error;
}

TEST_F(RobustnessTest, TimeoutSerialAndParallel) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PreparedQuery* q = session_->Prepare(kHeavyText);
    ASSERT_TRUE(q->ok()) << q->error();
    q->set_deadline_millis(50);
    RowCounter rc;
    const auto start = std::chrono::steady_clock::now();
    QueryOutcome out = q->Execute(&rc, threads);
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(out.status, Status::kTimeout);
    EXPECT_NE(out.error.find("deadline"), std::string::npos) << out.error;
    // Partial progress is reported, not discarded.
    EXPECT_EQ(out.rows, rc.rows.load());
    // Workers must quiesce promptly past the deadline. The acceptance
    // bar is 10 ms of slack; sanitizer / debug builds get a generous
    // multiplier since every poll is instrumented.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    // 10 ms is a scheduling bound, not an engine bound: with ctest
    // running sibling suites in parallel on a single visible core, the
    // whole process can sit descheduled past the deadline through no
    // fault of the stop path. Keep the tight bar where a spare core
    // exists (CI runners have 4).
    const double slack_ms = std::thread::hardware_concurrency() >= 2 ? 10.0 : 100.0;
#else
    const double slack_ms = 500.0;
#endif
    EXPECT_LT(elapsed_ms, 50.0 + slack_ms);
    q->set_deadline_millis(0);  // disarm for the next loop iteration
  }
}

// A deadline landing during the Finish cascade of a staged query must
// produce kTimeout with no (or a partial) row set — never a silently
// wrong aggregate.
TEST_F(RobustnessTest, TimeoutStagedQuery) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PreparedQuery* q = session_->Prepare(kHeavyAggText);
    ASSERT_TRUE(q->ok()) << q->error();
    q->set_deadline_millis(40);
    RowCollector rows;
    QueryOutcome out = q->Execute(&rows, threads);
    ASSERT_EQ(out.status, Status::kTimeout) << out.error;
    EXPECT_EQ(out.rows, 0u);  // enumeration was cut short: no merge ran
    q->set_deadline_millis(0);
  }
}

// A database built with `config` over the fixture's graph.
std::unique_ptr<Database> DatabaseWith(const EngineConfig& config) {
  auto db = std::make_unique<Database>(MakeGraph(), config);
  db->BuildPrimaryIndexes();
  return db;
}

// The config's query_timeout_ms applies to every execute whose query
// set no deadline; an explicit set_deadline_millis wins over it.
TEST_F(RobustnessTest, ConfigDeadlineAppliesWhenQuerySetsNone) {
  EngineConfig config;
  config.query_timeout_ms = 50;
  std::unique_ptr<Database> db = DatabaseWith(config);
  Session session(db.get());
  PreparedQuery* q = session.Prepare(kHeavyText);
  ASSERT_TRUE(q->ok()) << q->error();
  EXPECT_EQ(q->deadline_millis(), -1);
  QueryOutcome out = q->Execute(nullptr, 1);
  EXPECT_EQ(out.status, Status::kTimeout);
  EXPECT_NE(out.error.find("deadline exceeded (50 ms)"), std::string::npos) << out.error;
  EXPECT_TRUE(session.Execute(kLightText).ok());

  config.query_timeout_ms = 10000;
  db = DatabaseWith(config);
  Session generous(db.get());
  EXPECT_TRUE(generous.Execute(kLightText).ok());
  PreparedQuery* explicit_deadline = generous.Prepare(kHeavyText);
  explicit_deadline->set_deadline_millis(20);
  out = explicit_deadline->Execute(nullptr, 1);
  EXPECT_EQ(out.status, Status::kTimeout);
  EXPECT_NE(out.error.find("deadline exceeded (20 ms)"), std::string::npos) << out.error;
}

TEST_F(RobustnessTest, CancelFromAnotherThread) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PreparedQuery* q = session_->Prepare(kHeavyText);
    ASSERT_TRUE(q->ok()) << q->error();
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      q->Cancel();  // documented as the one thread-safe member
    });
    QueryOutcome out = q->Execute(nullptr, threads);
    canceller.join();
    EXPECT_EQ(out.status, Status::kCancelled);
    EXPECT_NE(out.error.find("cancelled"), std::string::npos) << out.error;
  }
}

// A Cancel with no execute in flight applies to the next Execute.
TEST_F(RobustnessTest, CancelBeforeExecute) {
  PreparedQuery* q = session_->Prepare(kHeavyText);
  ASSERT_TRUE(q->ok());
  q->Cancel();
  EXPECT_EQ(q->Execute(nullptr, 1).status, Status::kCancelled);
  // The token resets per execute, so the one after runs (until its
  // deadline, here).
  q->set_deadline_millis(50);
  EXPECT_EQ(q->Execute(nullptr, 1).status, Status::kTimeout);
}

TEST_F(RobustnessTest, ResourceExhaustedGroupBy) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    PreparedQuery* q = session_->Prepare("MATCH (a)-[r1:E]->(b) RETURN a, COUNT(*)");
    ASSERT_TRUE(q->ok()) << q->error();
    q->set_mem_cap_bytes(256);
    RowCollector rows;
    QueryOutcome out = q->Execute(&rows, threads);
    EXPECT_EQ(out.status, Status::kResourceExhausted);
    EXPECT_NE(out.error.find("set_mem_cap_bytes"), std::string::npos) << out.error;
    EXPECT_EQ(out.rows, 0u);
    EXPECT_TRUE(rows.rows.empty());
    // Lifting the cap on the same prepared plan recovers fully.
    q->set_mem_cap_bytes(0);
    QueryOutcome ok = q->Execute(nullptr, threads);
    EXPECT_TRUE(ok.ok()) << ok.error;
    EXPECT_GT(ok.rows, 0u);
  }
}

TEST_F(RobustnessTest, ResourceExhaustedSort) {
  PreparedQuery* q = session_->Prepare(kSortText);
  ASSERT_TRUE(q->ok()) << q->error();
  q->set_mem_cap_bytes(64 << 10);  // far below the 2-hop row volume
  QueryOutcome out = q->Execute(nullptr, 1);
  EXPECT_EQ(out.status, Status::kResourceExhausted) << out.error;
  q->set_mem_cap_bytes(0);
  EXPECT_TRUE(q->Execute(nullptr, 1).ok());
}

TEST_F(RobustnessTest, ResourceExhaustedConfigCapAndProcessCeiling) {
  constexpr const char* kGrouped = "MATCH (a)-[r1:E]->(b) RETURN b, COUNT(*)";
  {
    // The config's mem_cap_bytes applies when no explicit cap is set.
    EngineConfig config;
    config.mem_cap_bytes = 256;
    std::unique_ptr<Database> db = DatabaseWith(config);
    QueryOutcome out = Session(db.get()).Execute(kGrouped);
    EXPECT_EQ(out.status, Status::kResourceExhausted);
    EXPECT_NE(out.error.find("APLUS_MEM_CAP=256"), std::string::npos) << out.error;

    // The process-wide ceiling trips even when the per-query cap is absent.
    config = EngineConfig();
    config.mem_cap_total_bytes = 256;
    db = DatabaseWith(config);
    out = Session(db.get()).Execute(kGrouped);
    EXPECT_EQ(out.status, Status::kResourceExhausted);
    EXPECT_NE(out.error.find("(APLUS_MEM_CAP_TOTAL=256 bytes)"), std::string::npos) << out.error;
  }

  // An execute under a config with neither installs no ceiling and runs
  // clean. The retained arena charges stay attributed to this query's
  // budget until its next reset (they really are resident), never more
  // than what it used.
  EXPECT_TRUE(session_->Execute(kGrouped).ok());
  EXPECT_GT(MemoryBudget::ProcessUsed(), 0u);
  session_.reset();  // destroys the cached plans: accounting drains
  EXPECT_EQ(MemoryBudget::ProcessUsed(), 0u);
}

// Two databases in one process with different process ceilings: each
// query holds the shared process total to its own database's ceiling, so
// an execute on one database does not change the ceiling of a query in
// flight on the other. An uncapped database's streaming triangle query
// runs an execute on a database with a 256-byte ceiling from its first
// row batch, then grows its intersection decode buffer (a charge) on the
// longer lists of a second clique; it must still finish ok.
TEST(ProcessCeilingTest, ExecuteOnAnotherDatabaseKeepsTheCeilingOfAQueryInFlight) {
  // A 30-clique, then an 80-clique: the serial scan reaches the longer
  // lists after the first batches went out. Sealed compressed, so the
  // lists are packed and every intersection decodes into plan scratch.
  Graph graph;
  const label_t elabel = graph.catalog().AddEdgeLabel("E");
  const label_t vlabel = graph.catalog().AddVertexLabel("V");
  for (uint32_t size : {30u, 80u}) {
    const vertex_id_t first = static_cast<vertex_id_t>(graph.num_vertices());
    for (uint32_t i = 0; i < size; ++i) graph.AddVertex(vlabel);
    for (vertex_id_t u = first; u < first + size; ++u) {
      for (vertex_id_t v = first; v < first + size; ++v) {
        if (u != v) graph.AddEdge(u, v, elabel);
      }
    }
  }
  EngineConfig config;
  config.segment_compress = CompressMode::kOn;
  const std::string path = testing::TempDir() + "/aplus_process_ceiling.seg";
  std::string error;
  {
    Database sealer(std::move(graph), config);
    sealer.BuildPrimaryIndexes();
    ASSERT_TRUE(sealer.SealToSegment(path, &error)) << error;
  }
  std::unique_ptr<Database> uncapped = Database::OpenFromSegment(path, &error, config);
  ASSERT_NE(uncapped, nullptr) << error;
  EngineConfig tight;
  tight.mem_cap_total_bytes = 256;
  std::unique_ptr<Database> capped = DatabaseWith(tight);

  struct InterleavingConsumer : RowConsumer {
    Database* other = nullptr;
    bool ran = false;
    QueryOutcome other_outcome;
    uint64_t used_after = 0;
    void OnBatch(const RowBatch&) override {
      if (ran) return;
      ran = true;
      other_outcome = Session(other).Execute("MATCH (x)-[s:E]->(y) RETURN COUNT(*)");
      used_after = MemoryBudget::ProcessUsed();
    }
  };
  InterleavingConsumer consumer;
  consumer.other = capped.get();
  PrepareOptions options;
  options.batch_rows = 16;
  std::unique_ptr<PreparedQuery> triangles = uncapped->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN a, b, c", options);
  ASSERT_TRUE(triangles->ok()) << triangles->error();
  QueryOutcome out = triangles->Execute(&consumer, 1);
  EXPECT_TRUE(out.ok()) << out.error;
  EXPECT_EQ(out.rows, 30u * 29 * 28 + 80u * 79 * 78);
  ASSERT_TRUE(consumer.ran);
  EXPECT_TRUE(consumer.other_outcome.ok()) << consumer.other_outcome.error;
  // The triangle query charged after the other execute: the interleaving
  // this test is about happened.
  EXPECT_GT(MemoryBudget::ProcessUsed(), consumer.used_after);
  std::remove(path.c_str());
}

TEST_F(RobustnessTest, OverloadedRejectAndQueueTimeout) {
  // One slot, zero queue: a second concurrent execute is rejected.
  db_->admission().Configure({/*max_concurrent=*/1, /*max_queue=*/0, /*queue_timeout_ms=*/0});
  PreparedQuery* heavy = session_->Prepare(kHeavyText);
  ASSERT_TRUE(heavy->ok());
  heavy->set_deadline_millis(400);
  std::atomic<bool> started{false};
  std::thread runner([&] {
    started.store(true);
    heavy->Execute(nullptr, 1);
  });
  while (!started.load() || db_->admission().running() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  Session other(db_.get());
  QueryOutcome rejected = other.Execute(kLightText);
  EXPECT_EQ(rejected.status, Status::kOverloaded);
  EXPECT_NE(rejected.error.find("APLUS_MAX_CONCURRENT"), std::string::npos) << rejected.error;
  runner.join();

  // One slot, queue of 4 with a 30 ms wait: a waiter behind a long query
  // times out in the queue instead of blocking forever.
  db_->admission().Configure({1, 4, 30});
  std::thread runner2([&] { heavy->Execute(nullptr, 1); });
  while (db_->admission().running() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QueryOutcome timed_out = other.Execute(kLightText);
  EXPECT_EQ(timed_out.status, Status::kOverloaded);
  EXPECT_NE(timed_out.error.find("timed out"), std::string::npos) << timed_out.error;
  runner2.join();

  // Disabled again: everything admits.
  db_->admission().Configure({0, 0, 0});
  EXPECT_TRUE(other.Execute(kLightText).ok());
  EXPECT_EQ(db_->admission().running(), 0);
  EXPECT_EQ(db_->admission().queued(), 0);
}

TEST_F(RobustnessTest, AdmissionQueueAdmitsWhenSlotFrees) {
  db_->admission().Configure({1, 4, 5000});
  PreparedQuery* heavy = session_->Prepare(kHeavyText);
  ASSERT_TRUE(heavy->ok());
  heavy->set_deadline_millis(100);
  std::thread runner([&] { heavy->Execute(nullptr, 1); });
  while (db_->admission().running() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Queued behind a 100 ms query with a 5 s allowance: must succeed.
  Session other(db_.get());
  EXPECT_TRUE(other.Execute(kLightText).ok());
  runner.join();
  db_->admission().Configure({0, 0, 0});
}

// A programmatic pattern: a directed path over `hops` E-edges.
QueryGraph PathQuery(const Database& db, int hops) {
  const label_t elabel = db.graph().catalog().FindEdgeLabel("E");
  QueryGraph query;
  query.AddVertex("v0");
  for (int i = 1; i <= hops; ++i) {
    query.AddVertex("v" + std::to_string(i));
    query.AddEdge(i - 1, i, elabel, "r" + std::to_string(i));
  }
  return query;
}

// The QueryGraph one-shot runs through PreparedQuery::Execute, so it
// takes an execute slot of the config's gate like every other query:
// with the only slot held and no queue, it is rejected before running.
TEST_F(RobustnessTest, QueryGraphOneShotHonorsAdmission) {
  EngineConfig config;
  config.admission = {/*max_concurrent=*/1, /*max_queue=*/0, /*queue_timeout_ms=*/0};
  std::unique_ptr<Database> db = DatabaseWith(config);
  const QueryGraph one_hop = PathQuery(*db, 1);
  {
    AdmissionSlot held(&db->admission());
    ASSERT_TRUE(held.admitted());
    QueryOutcome rejected = db->Execute(one_hop, TestThreads());
    EXPECT_EQ(rejected.status, Status::kOverloaded);
    EXPECT_NE(rejected.error.find("APLUS_MAX_CONCURRENT"), std::string::npos) << rejected.error;
    EXPECT_EQ(rejected.count, 0u);
  }
  // Slot released: the same pattern admits and runs.
  QueryOutcome admitted = db->Execute(one_hop, TestThreads());
  ASSERT_TRUE(admitted.ok()) << admitted.error;
  EXPECT_EQ(admitted.count, db->graph().num_edges());
  EXPECT_EQ(db->admission().running(), 0);
}

// The config's query_timeout_ms reaches the QueryGraph one-shot with the
// prepared path's typed status and error text (database_test covers
// mem_cap_bytes, which needs a plan that grows scratch).
TEST_F(RobustnessTest, QueryGraphOneShotHonorsConfigDeadline) {
  EngineConfig config;
  config.query_timeout_ms = 50;
  std::unique_ptr<Database> db = DatabaseWith(config);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    QueryOutcome timed_out = db->Execute(PathQuery(*db, 4), threads);
    EXPECT_EQ(timed_out.status, Status::kTimeout);
    EXPECT_NE(timed_out.error.find("deadline exceeded (50 ms)"), std::string::npos)
        << timed_out.error;
  }
}

// After every failure mode, the same session + prepared plan must
// produce exactly the rows of a fresh database that never failed.
TEST_F(RobustnessTest, ReExecuteAfterFailureMatchesFreshDatabase) {
  constexpr const char* kProbe = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = 5 RETURN b, c";
  // Fresh-database oracle.
  Database fresh_db(MakeGraph());
  fresh_db.BuildPrimaryIndexes();
  Session fresh_session(&fresh_db);
  RowCollector oracle;
  QueryOutcome oracle_out = fresh_session.Execute(kProbe, &oracle);
  ASSERT_TRUE(oracle_out.ok()) << oracle_out.error;
  ASSERT_GT(oracle.rows.size(), 0u);

  // Failure gauntlet on the shared db: timeout, cancel, exhaustion.
  PreparedQuery* heavy = session_->Prepare(kHeavyText);
  heavy->set_deadline_millis(40);
  EXPECT_EQ(heavy->Execute(nullptr, 4).status, Status::kTimeout);
  heavy->set_deadline_millis(0);
  heavy->Cancel();
  EXPECT_EQ(heavy->Execute(nullptr, 1).status, Status::kCancelled);
  PreparedQuery* agg = session_->Prepare("MATCH (a)-[r1:E]->(b) RETURN a, COUNT(*)");
  agg->set_mem_cap_bytes(256);
  EXPECT_EQ(agg->Execute(nullptr, 1).status, Status::kResourceExhausted);
  agg->set_mem_cap_bytes(0);

  for (int threads : {1, 4}) {
    RowCollector got;
    QueryOutcome out = session_->Execute(kProbe, &got, threads);
    ASSERT_TRUE(out.ok()) << out.error;
    ASSERT_EQ(got.rows.size(), oracle.rows.size());
    std::vector<std::pair<int64_t, int64_t>> a, b;
    for (const auto& row : oracle.rows) a.emplace_back(row[0].AsInt64(), row[1].AsInt64());
    for (const auto& row : got.rows) b.emplace_back(row[0].AsInt64(), row[1].AsInt64());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

// The happy path with a deadline and a memory cap armed must stay
// allocation-free in steady state — the whole point of the atomic
// token/budget design. Asserted indirectly: zero_alloc_test owns the
// counting allocator; here we assert the cheap observable instead, that
// repeated executes return identical results with the governor armed.
TEST_F(RobustnessTest, GovernorArmedSteadyStateStable) {
  PreparedQuery* q = session_->Prepare(kLightText);
  ASSERT_TRUE(q->ok());
  q->set_deadline_millis(10000);
  q->set_mem_cap_bytes(64 << 20);
  RowCounter first;
  ASSERT_TRUE(q->Execute(&first, 1).ok());
  for (int i = 0; i < 50; ++i) {
    RowCounter rc;
    QueryOutcome out = q->Execute(&rc, 1);
    ASSERT_TRUE(out.ok()) << out.error;
    ASSERT_EQ(rc.rows.load(), first.rows.load());
  }
}

// --- Fault injection ---

TEST_F(RobustnessTest, FaultSpecParsing) {
  EXPECT_TRUE(fault::SetSpec("alloc"));
  EXPECT_TRUE(fault::SetSpec("alloc:0.5,delta_full:@3"));
  EXPECT_TRUE(fault::SetSpec(""));
  EXPECT_FALSE(fault::SetSpec("alloc:nope"));
  EXPECT_FALSE(fault::SetSpec("alloc:@0"));
  EXPECT_FALSE(fault::SetSpec("alloc:1.5"));
  fault::Clear();
  EXPECT_FALSE(fault::ShouldFail(fault::kAlloc));
}

TEST_F(RobustnessTest, AllocFaultSurfacesAsResourceExhaustedThenRecovers) {
  PreparedQuery* q = session_->Prepare("MATCH (a)-[r1:E]->(b) RETURN a, COUNT(*)");
  ASSERT_TRUE(q->ok());
  // Make the budget active so Charge() is consulted, then fail its first
  // allocation check.
  q->set_mem_cap_bytes(1 << 30);
  ASSERT_TRUE(fault::SetSpec("alloc:@1"));
  QueryOutcome out = q->Execute(nullptr, 1);
  EXPECT_EQ(out.status, Status::kResourceExhausted) << out.error;
  EXPECT_GE(fault::Hits(fault::kAlloc), 1u);
  fault::Clear();
  // Same plan, clean re-execute.
  QueryOutcome ok = q->Execute(nullptr, 1);
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_GT(ok.rows, 0u);
}

// The pool-dispatch fault degrades parallel runs to inline sequential
// execution; results must be identical to the truly parallel run.
TEST_F(RobustnessTest, PoolDispatchFaultPreservesResults) {
  PreparedQuery* q =
      session_->Prepare("MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = 2 RETURN b, c");
  ASSERT_TRUE(q->ok());
  RowCounter parallel_rc;
  QueryOutcome parallel_out = q->Execute(&parallel_rc, 4);
  ASSERT_TRUE(parallel_out.ok()) << parallel_out.error;
  ASSERT_TRUE(fault::SetSpec("pool_dispatch"));
  RowCounter degraded_rc;
  QueryOutcome degraded_out = q->Execute(&degraded_rc, 4);
  fault::Clear();
  ASSERT_TRUE(degraded_out.ok()) << degraded_out.error;
  EXPECT_EQ(degraded_out.count, parallel_out.count);
  EXPECT_EQ(degraded_rc.rows.load(), parallel_rc.rows.load());
  EXPECT_GE(fault::Hits(fault::kPoolDispatch), 0u);  // counters reset by Clear
}

// --- Concurrent ingest: typed capacity errors + fault points ---

class IngestRobustnessTest : public ::testing::Test {
 protected:
  IngestRobustnessTest() {
    Graph graph;
    PowerLawParams params;
    params.num_vertices = 300;
    params.avg_degree = 4.0;
    params.seed = 41;
    GeneratePowerLawGraph(params, &graph);
    elabel_ = graph.catalog().FindEdgeLabel("E");
    db_ = std::make_unique<Database>(std::move(graph));
    db_->BuildPrimaryIndexes();
  }
  ~IngestRobustnessTest() override { fault::Clear(); }

  uint64_t CountOneHop(vertex_id_t src) {
    Session session(db_.get());
    PreparedQuery* q = session.Prepare("MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b");
    q->Bind("src", Value::Int64(static_cast<int64_t>(src)));
    QueryOutcome out = q->Execute();
    EXPECT_TRUE(out.ok()) << out.error;
    return out.rows;
  }

  label_t elabel_ = kInvalidLabel;
  std::unique_ptr<Database> db_;
};

TEST_F(IngestRobustnessTest, CapacityOverrunIsTypedErrorAndEndFlushesCleanly) {
  const uint64_t base = db_->graph().num_edges();
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();
  options.max_edges = base + 2;  // room for exactly two inserts
  db_->BeginConcurrentIngest(options);

  const uint64_t before = CountOneHop(7);
  for (int i = 0; i < 2; ++i) {
    edge_id_t e = db_->graph().AddEdge(7, static_cast<vertex_id_t>(20 + i), elabel_);
    ASSERT_NE(e, kInvalidEdge);
    db_->maintainer().OnEdgeInserted(e);
  }
  // Third insert overruns the reservation: typed error, no abort, and
  // the maintainer is (correctly) never told about it.
  EXPECT_EQ(db_->graph().AddEdge(7, 50, elabel_), kInvalidEdge);
  EXPECT_EQ(db_->graph().num_edges(), base + 2);

  db_->EndConcurrentIngest();
  // Indexes are exact over the edges that did insert.
  EXPECT_EQ(CountOneHop(7), before + 2);
}

TEST_F(IngestRobustnessTest, VertexCapacityOverrunIsTypedError) {
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();  // zero headroom
  options.max_edges = db_->graph().num_edges() + 4;
  db_->BeginConcurrentIngest(options);
  EXPECT_EQ(db_->graph().AddVertex(kInvalidLabel), kInvalidVertex);
  db_->EndConcurrentIngest();
}

TEST_F(IngestRobustnessTest, IngestFaultPointSkipsExactlyOneEdge) {
  const uint64_t base = db_->graph().num_edges();
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();
  options.max_edges = base + 16;
  db_->BeginConcurrentIngest(options);
  ASSERT_TRUE(fault::SetSpec("ingest_add_edge:@3"));
  uint64_t inserted = 0;
  for (int i = 0; i < 8; ++i) {
    edge_id_t e = db_->graph().AddEdge(9, static_cast<vertex_id_t>(30 + i), elabel_);
    if (e == kInvalidEdge) continue;  // the injected failure
    db_->maintainer().OnEdgeInserted(e);
    ++inserted;
  }
  fault::Clear();
  EXPECT_EQ(inserted, 7u);
  db_->EndConcurrentIngest();
  EXPECT_EQ(db_->graph().num_edges(), base + 7);
}

// delta_full forces the inline-merge path on every insert; the indexes
// must still be exact after the phase.
TEST_F(IngestRobustnessTest, DeltaFullFaultKeepsIndexesExact) {
  const uint64_t before = CountOneHop(11);
  ConcurrentIngestOptions options;
  options.max_vertices = db_->graph().num_vertices();
  options.max_edges = db_->graph().num_edges() + 32;
  options.background_merge = false;  // merge inline on the ingest thread
  db_->BeginConcurrentIngest(options);
  ASSERT_TRUE(fault::SetSpec("delta_full:0.5"));
  for (int i = 0; i < 32; ++i) {
    edge_id_t e =
        db_->graph().AddEdge(11, static_cast<vertex_id_t>(40 + (i % 20)), elabel_);
    ASSERT_NE(e, kInvalidEdge);
    db_->maintainer().OnEdgeInserted(e);
  }
  fault::Clear();
  db_->EndConcurrentIngest();
  EXPECT_EQ(CountOneHop(11), before + 32);
}

}  // namespace
}  // namespace aplus
