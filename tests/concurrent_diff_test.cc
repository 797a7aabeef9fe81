// Differential tests for concurrent serving under online updates (the
// epoch/delta tentpole): reader threads execute prepared queries while a
// writer streams edge insertions (and later deletions) through
// Database::BeginConcurrentIngest. Validation is two-layered:
//
//  1. During the phase, every observed result must be bracketed by the
//     quiesced snapshots. Insert-only ingest makes match sets monotone
//     increasing, so each one-hop row multiset must contain the
//     pre-ingest adjacency and be contained in the post-ingest
//     adjacency, and every match count must lie in [pre, post]; a
//     delete-only phase brackets the other way. This is exactly the
//     per-list read-committed contract the index layer promises.
//  2. Once writers quiesce (EndConcurrentIngest), counts and row sets
//     must equal a fresh oracle Database built from scratch over the
//     final edge set — merges lost nothing and tombstones erased
//     exactly the deleted edges.
//
// Runs 3 seeds x {1, 4} reader threads; each reader's two-hop counts run
// with TestThreads() workers (the concurrency-stress CI lane executes
// this suite under TSan with APLUS_THREADS=4). Nightly scales
// the graph through APLUS_CONC_VERTICES / APLUS_CONC_DEGREE. A pinned
// four-worker count checks that one parallel execution reads a hub's
// first-hop list once while the list grows under it, and a last test has
// four Sessions prepare and execute concurrently through the database's
// one plan cache.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "query/plan.h"
#include "util/rng.h"
#include "test_threads.h"

namespace aplus {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10) : fallback;
}

struct EdgeTriple {
  vertex_id_t src, dst;
  label_t label;
};

// Parallel plan execution delivers batches concurrently from workers,
// so the collector is mutex-guarded.
struct RowCollector : RowConsumer {
  std::mutex mu;
  std::vector<int64_t> values;  // first column only (the b vertex)
  void OnBatch(const RowBatch& batch) override {
    std::lock_guard<std::mutex> lock(mu);
    for (uint32_t r = 0; r < batch.num_rows(); ++r) values.push_back(batch.Cell(0, r).AsInt64());
  }
};

constexpr const char* kOneHopText = "MATCH (a)-[r:E]->(b) WHERE a.ID = $src RETURN b";
constexpr const char* kTwoHopText =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN b, c";

// One recorded reader execution, validated against the bracketing
// snapshots after the phase ends.
struct Observation {
  vertex_id_t src;
  uint64_t two_hop_count;
  std::map<int64_t, uint64_t> one_hop_rows;  // b -> multiplicity
};

class ConcurrentDiffTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  static std::vector<EdgeTriple> SnapshotEdges(const Graph& g) {
    std::vector<EdgeTriple> all;
    for (edge_id_t e = 0; e < g.num_edges(); ++e) {
      all.push_back({g.edge_src(e), g.edge_dst(e), g.edge_label(e)});
    }
    return all;
  }

  static Graph BuildGraph(uint64_t num_vertices, const std::vector<EdgeTriple>& edges) {
    Graph g;
    label_t vlabel = g.catalog().AddVertexLabel("V");
    g.catalog().AddEdgeLabel("E");
    for (vertex_id_t v = 0; v < num_vertices; ++v) g.AddVertex(vlabel);
    for (const EdgeTriple& t : edges) g.AddEdge(t.src, t.dst, t.label);
    return g;
  }

  // Quiesced reference answers for one probe vertex on any database.
  static Observation Quiesced(Database* db, vertex_id_t src) {
    Session session(db);
    Observation obs;
    obs.src = src;
    PreparedQuery* one = session.Prepare(kOneHopText);
    EXPECT_TRUE(one->ok()) << one->error();
    EXPECT_TRUE(one->Bind("src", Value::Int64(src)));
    RowCollector rc;
    QueryOutcome out = one->Execute(&rc, /*num_threads=*/1);
    EXPECT_TRUE(out.ok()) << out.error;
    for (int64_t b : rc.values) ++obs.one_hop_rows[b];
    PreparedQuery* two = session.Prepare(kTwoHopText);
    EXPECT_TRUE(two->ok()) << two->error();
    EXPECT_TRUE(two->Bind("src", Value::Int64(src)));
    obs.two_hop_count = two->Execute(nullptr, /*num_threads=*/1).count;
    return obs;
  }

  // `lo` and `hi` bracket the phase; every observation must satisfy
  // lo <= observed <= hi element-wise (lo = smaller snapshot).
  static void ValidateBracketed(const std::vector<Observation>& observed,
                                const std::map<vertex_id_t, Observation>& lo,
                                const std::map<vertex_id_t, Observation>& hi,
                                const char* phase) {
    for (const Observation& obs : observed) {
      const Observation& pre = lo.at(obs.src);
      const Observation& post = hi.at(obs.src);
      EXPECT_GE(obs.two_hop_count, pre.two_hop_count)
          << phase << " two-hop undershot the lower snapshot, src=" << obs.src;
      EXPECT_LE(obs.two_hop_count, post.two_hop_count)
          << phase << " two-hop overshot the upper snapshot, src=" << obs.src;
      // Upper bound: every observed row is backed by an edge of the
      // larger snapshot with at least its multiplicity.
      for (const auto& [b, mult] : obs.one_hop_rows) {
        auto it = post.one_hop_rows.find(b);
        ASSERT_NE(it, post.one_hop_rows.end())
            << phase << " returned a row absent from the upper snapshot: src=" << obs.src
            << " b=" << b;
        EXPECT_LE(mult, it->second) << phase << " src=" << obs.src << " b=" << b;
      }
      // Lower bound: rows of the smaller snapshot are in every
      // intermediate list view, so none may be missing.
      for (const auto& [b, mult] : pre.one_hop_rows) {
        auto it = obs.one_hop_rows.find(b);
        ASSERT_NE(it, obs.one_hop_rows.end())
            << phase << " lost a row of the lower snapshot: src=" << obs.src << " b=" << b;
        EXPECT_GE(it->second, mult) << phase << " src=" << obs.src << " b=" << b;
      }
    }
  }

  // Prepares one session per reader, then runs `writer_body` on its own
  // thread while `num_readers` threads hammer the probe vertices with
  // the prepared queries until the writer finishes, recording every
  // execution. Preparation happens strictly before the writer starts
  // (Database::Prepare is not safe against concurrent index mutation);
  // Bind/Execute are per-session thereafter — surviving the ingest
  // without re-preparing is the plan-cache half of the tentpole.
  static std::vector<Observation> RunReaders(Database* db, int num_readers,
                                             const std::vector<vertex_id_t>& probes,
                                             const std::function<void()>& writer_body) {
    std::vector<std::unique_ptr<Session>> sessions;
    struct ReaderQueries {
      PreparedQuery* one;
      PreparedQuery* two;
    };
    std::vector<ReaderQueries> queries;
    for (int t = 0; t < num_readers; ++t) {
      sessions.push_back(std::make_unique<Session>(db));
      PreparedQuery* one = sessions.back()->Prepare(kOneHopText);
      PreparedQuery* two = sessions.back()->Prepare(kTwoHopText);
      EXPECT_TRUE(one->ok()) << one->error();
      EXPECT_TRUE(two->ok()) << two->error();
      queries.push_back({one, two});
    }
    std::atomic<bool> done{false};
    std::thread writer([&] {
      writer_body();
      done.store(true, std::memory_order_release);
    });
    std::vector<std::vector<Observation>> per_thread(num_readers);
    std::vector<std::thread> readers;
    for (int t = 0; t < num_readers; ++t) {
      readers.emplace_back([&, t] {
        ReaderQueries q = queries[t];
        size_t round = 0;
        // At least one full pass over the probes even if the writer
        // finishes instantly; then keep going until it does.
        do {
          for (vertex_id_t src : probes) {
            Observation obs;
            obs.src = src;
            ASSERT_TRUE(q.one->Bind("src", Value::Int64(src)));
            RowCollector rc;
            QueryOutcome out = q.one->Execute(&rc);
            ASSERT_TRUE(out.ok()) << out.error;
            for (int64_t b : rc.values) ++obs.one_hop_rows[b];
            ASSERT_TRUE(q.two->Bind("src", Value::Int64(src)));
            QueryOutcome out2 = q.two->Execute(nullptr, TestThreads());
            ASSERT_TRUE(out2.ok()) << out2.error;
            obs.two_hop_count = out2.count;
            per_thread[t].push_back(std::move(obs));
          }
          ++round;
        } while (!done.load(std::memory_order_acquire) && round < 64);
      });
    }
    for (auto& t : readers) t.join();
    writer.join();
    std::vector<Observation> all;
    for (auto& v : per_thread) {
      for (auto& obs : v) all.push_back(std::move(obs));
    }
    return all;
  }
};

TEST_P(ConcurrentDiffTest, ReadersBracketedDuringIngestExactAfterQuiesce) {
  PowerLawParams params;
  params.num_vertices = EnvOr("APLUS_CONC_VERTICES", 700);
  params.avg_degree = static_cast<double>(EnvOr("APLUS_CONC_DEGREE", 6));
  params.preferential_fraction = 0.8;  // hubs -> long lists -> real merges
  params.seed = GetParam();
  Graph full;
  GeneratePowerLawGraph(params, &full);
  std::vector<EdgeTriple> all = SnapshotEdges(full);
  uint64_t num_vertices = full.num_vertices();

  // Hubs live at low vertex ids under preferential attachment; probe a
  // mix of hubs and ordinary vertices.
  std::vector<vertex_id_t> probes = {0, 1, 2, 3, 5, 8, 34, 144};

  size_t split = all.size() * 3 / 5;
  std::vector<EdgeTriple> base(all.begin(), all.begin() + split);
  std::vector<EdgeTriple> stream(all.begin() + split, all.end());

  for (int num_readers : {1, 4}) {
    Database db(BuildGraph(num_vertices, base));
    db.BuildPrimaryIndexes();

    std::map<vertex_id_t, Observation> pre;
    for (vertex_id_t src : probes) pre.emplace(src, Quiesced(&db, src));

    // ---- Phase 1: insert-only ingest under concurrent readers. ----
    ConcurrentIngestOptions options;
    options.max_vertices = num_vertices;
    options.max_edges = all.size();
    db.BeginConcurrentIngest(options);
    ASSERT_TRUE(db.concurrent_ingest_active());

    std::vector<Observation> observed = RunReaders(&db, num_readers, probes, [&] {
      for (const EdgeTriple& t : stream) {
        edge_id_t e = db.graph().AddEdge(t.src, t.dst, t.label);
        db.maintainer().OnEdgeInserted(e);
      }
    });
    db.EndConcurrentIngest();
    ASSERT_FALSE(db.concurrent_ingest_active());
    EXPECT_FALSE(db.index_store().HasPendingUpdates());

    std::map<vertex_id_t, Observation> post;
    for (vertex_id_t src : probes) post.emplace(src, Quiesced(&db, src));
    ValidateBracketed(observed, pre, post, "insert phase");

    // Quiesced exactness: a database built from scratch over the full
    // edge set answers identically.
    {
      Database oracle(BuildGraph(num_vertices, all));
      oracle.BuildPrimaryIndexes();
      for (vertex_id_t src : probes) {
        Observation want = Quiesced(&oracle, src);
        const Observation& got = post.at(src);
        EXPECT_EQ(got.two_hop_count, want.two_hop_count) << "src=" << src;
        EXPECT_EQ(got.one_hop_rows, want.one_hop_rows) << "src=" << src;
      }
    }

    // ---- Phase 2: delete a random sample under concurrent readers. ----
    Rng rng(GetParam() + 1000);
    std::vector<edge_id_t> doomed;
    std::vector<EdgeTriple> kept;
    for (edge_id_t e = 0; e < all.size(); ++e) {
      if (rng.NextBounded(100) < 15) {
        doomed.push_back(e);
      } else {
        kept.push_back(all[e]);
      }
    }
    ConcurrentIngestOptions del_options;
    del_options.max_vertices = num_vertices;
    del_options.max_edges = db.graph().num_edges();
    db.BeginConcurrentIngest(del_options);

    std::vector<Observation> del_observed = RunReaders(&db, num_readers, probes, [&] {
      for (edge_id_t e : doomed) db.maintainer().OnEdgeDeleted(e);
    });
    db.EndConcurrentIngest();

    std::map<vertex_id_t, Observation> final_obs;
    for (vertex_id_t src : probes) final_obs.emplace(src, Quiesced(&db, src));
    // Deletions shrink monotonically: final <= observed <= post.
    ValidateBracketed(del_observed, final_obs, post, "delete phase");

    {
      Database oracle(BuildGraph(num_vertices, kept));
      oracle.BuildPrimaryIndexes();
      for (vertex_id_t src : probes) {
        Observation want = Quiesced(&oracle, src);
        const Observation& got = final_obs.at(src);
        EXPECT_EQ(got.two_hop_count, want.two_hop_count) << "src=" << src;
        EXPECT_EQ(got.one_hop_rows, want.one_hop_rows) << "src=" << src;
      }
    }
  }
}

// Inline-merge mode (no background thread): the ingest thread itself
// compacts pages at the cost-model threshold while readers probe.
TEST_P(ConcurrentDiffTest, InlineMergeModeStaysExact) {
  PowerLawParams params;
  params.num_vertices = 400;
  params.avg_degree = 5.0;
  params.seed = GetParam() + 77;
  Graph full;
  GeneratePowerLawGraph(params, &full);
  std::vector<EdgeTriple> all = SnapshotEdges(full);
  uint64_t num_vertices = full.num_vertices();
  std::vector<vertex_id_t> probes = {0, 1, 2, 7};

  size_t split = all.size() / 2;
  Database db(BuildGraph(num_vertices, {all.begin(), all.begin() + split}));
  db.BuildPrimaryIndexes();

  ConcurrentIngestOptions options;
  options.max_vertices = num_vertices;
  options.max_edges = all.size();
  options.background_merge = false;
  db.BeginConcurrentIngest(options);

  std::vector<Observation> observed = RunReaders(&db, 2, probes, [&] {
    for (size_t i = split; i < all.size(); ++i) {
      edge_id_t e = db.graph().AddEdge(all[i].src, all[i].dst, all[i].label);
      db.maintainer().OnEdgeInserted(e);
    }
  });
  db.EndConcurrentIngest();

  Database oracle(BuildGraph(num_vertices, all));
  oracle.BuildPrimaryIndexes();
  for (vertex_id_t src : probes) {
    Observation want = Quiesced(&oracle, src);
    Observation got = Quiesced(&db, src);
    EXPECT_EQ(got.two_hop_count, want.two_hop_count) << "src=" << src;
    EXPECT_EQ(got.one_hop_rows, want.one_hop_rows) << "src=" << src;
  }
  // The bracket check still applies (pre is not captured here; use the
  // weaker upper-bound-only form via an empty lower snapshot).
  std::map<vertex_id_t, Observation> lo, hi;
  for (vertex_id_t src : probes) {
    Observation empty;
    empty.src = src;
    empty.two_hop_count = 0;
    lo.emplace(src, empty);
    hi.emplace(src, Quiesced(&db, src));
  }
  ValidateBracketed(observed, lo, hi, "inline-merge phase");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentDiffTest, ::testing::Values(11u, 29u, 47u));

// A four-worker count of a hub's out-edges splits the hub's one list
// among the workers. The first match inserts kInserted edges from the hub
// to the lowest vertex IDs; they sort ahead of every entry of the
// neighbour-sorted list, so a worker that fetched the list again after
// the insert would see every entry at a new position. The execution must
// read only the list it started with: exactly the pre-insert degree.
TEST(ConcurrentOneListTest, PinnedSplitReadsTheFirstHopListOnce) {
  constexpr vertex_id_t kInserted = 16;
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 8.0;
  params.preferential_fraction = 0.8;
  params.seed = 5;
  Graph graph;
  GeneratePowerLawGraph(params, &graph);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();
  const PrimaryIndex* primary = db.index_store().primary(Direction::kFwd);
  const label_t elabel = db.graph().catalog().FindEdgeLabel("E");
  vertex_id_t hub = 0;
  for (vertex_id_t v = 0; v < db.graph().num_vertices(); ++v) {
    if (primary->GetFullList(v).len > primary->GetFullList(hub).len) hub = v;
  }
  ASSERT_GT(primary->GetFullList(hub).len, 256u);

  QueryGraph query;
  const int a = query.AddVertex("a", kInvalidLabel, hub);
  const int b = query.AddVertex("b");
  query.AddEdge(a, b, elabel, "e0");
  ListDescriptor list;
  list.primary = primary;
  list.bound_var = a;
  list.cats = {elabel};
  list.target_vertex_var = b;
  list.target_edge_var = 0;
  list.nbr_sorted = true;
  const uint64_t want = RunCount(*PlanBuilder(&db.graph(), &query).Scan(a).Extend(list).Build(), 1);

  ConcurrentIngestOptions options;
  options.max_vertices = db.graph().num_vertices();
  options.max_edges = db.graph().num_edges() + kInserted;
  db.BeginConcurrentIngest(options);
  std::atomic<bool> inserted{false};
  auto plan = PlanBuilder(&db.graph(), &query)
                  .Scan(a)
                  .Extend(list)
                  .Build([&](const MatchState&) {
                    if (inserted.exchange(true)) return;
                    for (vertex_id_t n = 0; n < kInserted; ++n) {
                      db.maintainer().OnEdgeInserted(db.graph().AddEdge(hub, n, elabel));
                    }
                  });
  EXPECT_EQ(RunCount(*plan, 4), want);
  EXPECT_TRUE(inserted.load());
  db.EndConcurrentIngest();
}

// Sessions on different threads prepare concurrently through the
// database's one plan cache: the same texts race to be optimized and
// different texts interleave with them. Every count must equal a serial
// run, and each distinct text is optimized exactly once.
TEST(ConcurrentPrepareTest, SessionsOnManyThreadsShareOnePlanCache) {
  PowerLawParams params;
  params.num_vertices = 2000;
  params.avg_degree = 5.0;
  params.seed = 3;
  Graph graph;
  GeneratePowerLawGraph(params, &graph);
  Database db(std::move(graph));
  db.BuildPrimaryIndexes();

  const std::vector<std::string> texts = {
      kOneHopText, kTwoHopText,
      "MATCH (a)-[r1:E]->(b)<-[r2:E]-(c) WHERE a.ID = $src RETURN COUNT(*)"};
  const std::vector<vertex_id_t> probes = {0, 1, 5, 34, 144, 999};
  // Serial reference, prepared outside the plan cache.
  std::map<std::pair<size_t, vertex_id_t>, uint64_t> want;
  std::map<size_t, std::string> want_plan;
  for (size_t t = 0; t < texts.size(); ++t) {
    std::unique_ptr<PreparedQuery> q = db.Prepare(texts[t]);
    ASSERT_TRUE(q->ok()) << q->error();
    want_plan[t] = q->plan_text();
    for (vertex_id_t src : probes) {
      ASSERT_TRUE(q->Bind("src", Value::Int64(src)));
      want[{t, src}] = q->Execute().count;
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  std::vector<std::map<std::pair<size_t, vertex_id_t>, uint64_t>> got(kThreads);
  // Each Session's plan text, rendered lazily from its own leased clone
  // while the other threads prepare and render theirs.
  std::vector<std::map<size_t, std::string>> got_plan(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Session session(&db);  // a fresh session each round: fresh leases
        for (size_t i = 0; i < texts.size(); ++i) {
          // Threads start on different texts, so same-text and
          // different-text prepares overlap.
          const size_t text = (i + static_cast<size_t>(t)) % texts.size();
          PreparedQuery* q = session.Prepare(texts[text]);
          ASSERT_TRUE(q->ok()) << q->error();
          got_plan[t][text] = q->plan_text();
          for (vertex_id_t src : probes) {
            ASSERT_TRUE(q->Bind("src", Value::Int64(src)));
            QueryOutcome out = q->Execute(nullptr, 1);
            ASSERT_TRUE(out.ok()) << out.error;
            got[t][{text, src}] = out.count;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
    EXPECT_EQ(got_plan[t], want_plan) << "thread " << t;
  }
  EXPECT_EQ(db.plan_cache().misses(), texts.size());
  EXPECT_EQ(db.plan_cache().hits(), kThreads * kRounds * texts.size() - texts.size());
}

}  // namespace
}  // namespace aplus
