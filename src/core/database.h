#ifndef APLUS_CORE_DATABASE_H_
#define APLUS_CORE_DATABASE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>

#include "core/admission.h"
#include "core/engine_config.h"
#include "core/plan_cache.h"
#include "core/session.h"
#include "index/index_store.h"
#include "index/maintenance.h"
#include "optimizer/dp_optimizer.h"
#include "query/cypher_parser.h"
#include "query/ddl_parser.h"
#include "query/query_graph.h"
#include "storage/graph.h"

namespace aplus {

// Result of executing a DDL command (RECONFIGURE / CREATE ... VIEW).
struct DdlResult {
  bool ok = false;
  std::string message;
  double seconds = 0.0;  // index (re)build time — the IR/IC columns
};

// Capacity contract of one concurrent ingest phase: the graph and index
// storage are pre-sized so lock-free readers never race a reallocation.
struct ConcurrentIngestOptions {
  uint64_t max_vertices = 0;  // >= current count; hard cap during the phase
  uint64_t max_edges = 0;
  // Compact deltas on a dedicated merger thread (default); false merges
  // inline on the ingest thread once a page crosses its cost threshold.
  bool background_merge = true;
};

// The public facade of the engine: a property graph plus its A+ index
// subsystem, the DP optimizer, and maintenance.
//
// The serving flow prepares once and executes per request:
//
//   Database db(std::move(graph));  // settings: EngineConfig::FromEnv()
//   db.BuildPrimaryIndexes();
//   db.ExecuteDdl("RECONFIGURE PRIMARY INDEXES ...");
//
//   Session session(&db);  // one per serving thread; plans are shared
//   PreparedQuery* q = session.Prepare(
//       "MATCH (a)-[r1:W]->(b)-[r2:W]->(c) WHERE a.ID = $src "
//       "RETURN b, c, r2.amount LIMIT 100");
//   q->Bind("src", Value::Int64(42));
//   QueryOutcome out = q->Execute(&my_row_consumer);   // streams RowBatches
//
// One-shot paths (Execute / ExecuteCypher) prepare per call, run that
// PreparedQuery once, and report through its QueryOutcome.
class Segment;

class Database {
 public:
  // Nothing reads the environment after `config` is taken here.
  explicit Database(Graph graph, const EngineConfig& config = EngineConfig::FromEnv());
  ~Database();

  const EngineConfig& config() const { return config_; }

  Graph& graph() { return graph_; }
  const Graph& graph() const { return graph_; }
  IndexStore& index_store() { return *store_; }
  const IndexStore& index_store() const { return *store_; }
  Maintainer& maintainer() { return *maintainer_; }

  // Builds / reconfigures the primary A+ indexes. Returns build seconds.
  double BuildPrimaryIndexes(const IndexConfig& config = IndexConfig::Default());

  // Programmatic secondary index creation. FW-BW views produce one index
  // per direction; `seconds` (optional) receives the total build time.
  // Returns null, with a logged error, on a segment-backed database or
  // while concurrent ingest is active.
  VpIndex* CreateVpIndex(const std::string& name, const Predicate& pred,
                         const IndexConfig& config, Direction dir, double* seconds = nullptr);
  EpIndex* CreateEpIndex(const std::string& name, EpKind kind, const Predicate& pred,
                         const IndexConfig& config, double* seconds = nullptr);

  // Parses and executes one of the paper's index DDL commands. Rejected
  // with a typed error on a segment-backed database (sealed pages are
  // immutable) and while concurrent ingest is active.
  DdlResult ExecuteDdl(const std::string& command);

  // --- Sealed segments (storage/segment.h) ---
  //
  // Writes the graph plus both primary indexes to an immutable segment
  // file, laid out as config().segment_compress says. Requires built
  // indexes, no active ingest and an in-memory database; pending index
  // updates are flushed first. Returns false with a description in
  // *error.
  bool SealToSegment(const std::string& path, std::string* error = nullptr);

  // Opens a sealed segment: maps the file read-only, verifies its
  // checksums, and serves the graph columns and both primary indexes as
  // views into the mapping — no copy and no index rebuild. The database
  // holds the mapping for its lifetime. Segment-backed databases are
  // read-only on the DDL / ingest axis: ExecuteDdl returns a typed error,
  // BeginConcurrentIngest / CreateVpIndex / CreateEpIndex /
  // BuildPrimaryIndexes are rejected, and graph().AddVertex / AddEdge
  // return kInvalidVertex / kInvalidEdge. Queries, sessions, morsel
  // parallelism and the server run unchanged, under `config`. Returns
  // null with a description in *error on any validation failure.
  static std::unique_ptr<Database> OpenFromSegment(
      const std::string& path, std::string* error = nullptr,
      const EngineConfig& config = EngineConfig::FromEnv());

  bool segment_backed() const { return segment_ != nullptr; }

  // --- Concurrent serving under online updates ---
  //
  // Between Begin and End, exactly one ingest thread may stream updates
  // (Graph::AddEdge / property writes, then Maintainer::OnEdgeInserted /
  // OnEdgeDeleted — property writes must precede the maintainer call so
  // the edge is fully formed when it becomes probe-visible) while any
  // number of serving threads execute prepared queries. Readers see
  // per-list read-committed snapshots: each probe merges the page's
  // published run + delta atomically, so every row is backed by edges
  // that were live at some point during the phase; whole-query snapshot
  // isolation is NOT provided. String property writes are unsupported
  // while the phase is active, and DDL and secondary-index creation are
  // rejected (ExecuteDdl's typed error; CreateVpIndex / CreateEpIndex
  // return null): the maintainer updates only the primaries in this
  // mode. Both transitions require quiescence (no queries in flight).
  //
  // Capacity overrun is a typed error, not an abort: once max_vertices /
  // max_edges are exhausted, Graph::AddVertex / AddEdge return
  // kInvalidVertex / kInvalidEdge and the caller must NOT invoke the
  // maintainer for the failed insert. EndConcurrentIngest still flushes
  // cleanly afterwards — the indexes are exact over the edges that did
  // insert.
  void BeginConcurrentIngest(const ConcurrentIngestOptions& options);
  // Stops the merger, flushes every delta and drains the epoch queue;
  // the indexes are exact w.r.t. the graph afterwards.
  void EndConcurrentIngest();
  bool concurrent_ingest_active() const {
    return ingest_active_.load(std::memory_order_acquire);
  }

  // --- Serving API ---

  // Parses + optimizes `text` once into a reusable PreparedQuery (always
  // non-null; parse/plan failures are carried in its status and
  // re-reported by Execute). A pattern with more than
  // DpOptimizer::kMaxQueryVertices query vertices is a kPlanError naming
  // the limit, here and in Execute(QueryGraph) / Explain. Thread-safe
  // (prepares serialize internally), though not against DDL or the
  // ingest thread. Prefer Session::Prepare or plan_cache(), which
  // optimize each normalized text once and revalidate it against the
  // store/graph version counters.
  std::unique_ptr<PreparedQuery> Prepare(const std::string& text,
                                         const PrepareOptions& options = {});

  // The one plan cache every Session and server connection leases from.
  PlanCache& plan_cache() { return plan_cache_; }

  // The staleness rule shared by plans and the cached optimizer: state
  // costed at (store_version, num_edges) is stale once DDL moved the
  // index-store version or the graph's edge count left
  // [num_edges, 2 x num_edges].
  bool PlanStale(uint64_t store_version, uint64_t num_edges) const;

  // Runs a programmatic pattern once and counts its matches with
  // `num_threads` workers. The pattern is prepared exactly like a bare
  // Cypher MATCH (no parameters, no RETURN) and executed through
  // PreparedQuery::Execute, so it shares that path's admission control
  // (kOverloaded), deadline and memory governance (with their error
  // texts), and end-to-end `seconds`. Its plan text is Explain(query),
  // ending in the `ProjectSink (count)` line.
  QueryOutcome Execute(const QueryGraph& query, int num_threads = 1);

  // One-shot Cypher: Prepare + Execute. Rows stream to `consumer` when
  // the query projects and one is given.
  QueryOutcome ExecuteCypher(const std::string& text, RowConsumer* consumer = nullptr);

  // Figure 6-style plan rendering without executing; a failed prepare
  // renders as "(error: <message>)". A QueryGraph renders exactly as
  // the equivalent bare-MATCH Cypher text does.
  std::string Explain(const QueryGraph& query);
  std::string Explain(const std::string& text);

  size_t IndexMemoryBytes() const { return store_->TotalMemoryBytes(); }

  // Admission gate shared by every session's PreparedQuery::Execute.
  // Configured from config().admission at construction, or
  // programmatically via admission().Configure(). Disabled by default.
  AdmissionController& admission() { return admission_; }

 private:
  friend class PlanCache;

  // False, with a logged error, when CreateVpIndex / CreateEpIndex must
  // refuse: on a segment-backed database or during concurrent ingest.
  bool SecondaryIndexesAllowed() const;

  // Rebuilds the cached optimizer when it is PlanStale. Caller holds
  // prepare_mu_.
  DpOptimizer* CachedOptimizer();

  // Deep-clones a successfully prepared query without re-parsing or
  // re-optimizing: every physical operator (and sink stage) of `src`'s
  // primary pipeline is cloned into a fresh Plan wired to a fresh
  // PreparedQuery with its own ExecControls, empty scratch, and all
  // parameters unbound. `src` is read-only here and must not be
  // executing concurrently. This is PlanCache's checkout path: optimize
  // once per distinct query text, clone per lease.
  std::unique_ptr<PreparedQuery> ClonePrepared(const PreparedQuery& src);

  // The back half of Prepare, shared with the QueryGraph one-shots:
  // pattern-size check, parameters, result path (projected columns plus
  // the sink stage chain), flush, optimize, render, slots and versions.
  std::unique_ptr<PreparedQuery> PrepareParsed(ParsedCypher parsed,
                                               const PrepareOptions& options);

  const EngineConfig config_;
  Graph graph_;
  // Mapping behind segment-backed primary pages; null for in-memory
  // databases. Declared before store_ so the store (whose pages view the
  // mapping) destructs first and nothing dangles during teardown.
  std::unique_ptr<Segment> segment_;
  std::unique_ptr<IndexStore> store_;
  std::unique_ptr<Maintainer> maintainer_;
  AdmissionController admission_;
  std::atomic<bool> ingest_active_{false};
  // Serializes the flush + optimize + render half of every prepare: the
  // cached optimizer below is rebuilt in place.
  std::mutex prepare_mu_;
  std::unique_ptr<DpOptimizer> optimizer_;
  uint64_t optimizer_store_version_ = ~0ULL;
  uint64_t optimizer_num_edges_ = 0;
  // Declared last so cached plans, which point into the index store, are
  // destroyed first.
  PlanCache plan_cache_{this};
};

}  // namespace aplus

#endif  // APLUS_CORE_DATABASE_H_
