// aplusd server tests: the wire protocol end-to-end against an
// in-process Server on an ephemeral loopback port. Row payloads are
// byte-decoded by the client and compared against a Session executing
// the same text in-process (the serving-API oracle); protocol abuse
// (malformed / truncated / oversized / out-of-order frames) must fail
// with typed PROTOCOL_ERROR frames and never take the server down.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/database.h"
#include "datagen/power_law_generator.h"
#include "row_collector.h"
#include "server/client.h"
#include "server/server.h"
#include "util/rng.h"

namespace aplus {
namespace {

constexpr const char* kPointLookup =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN b, c, r2.amt";
constexpr const char* kPointCount =
    "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) WHERE a.ID = $src RETURN COUNT(*)";
constexpr const char* kGroupedAgg =
    "MATCH (a)-[r1:E]->(b) RETURN b, COUNT(*), SUM(r1.amt)";
constexpr const char* kDistinctMid = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN DISTINCT b";
constexpr const char* kWholeGraphRows = "MATCH (a)-[r1:E]->(b)-[r2:E]->(c) RETURN a, b, c";

// Canonical order-insensitive encoding of a row set (both sides of the
// oracle diff deliver rows in nondeterministic order).
std::string Repr(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "∅";
    case ValueType::kDouble:
      return "d:" + std::to_string(v.AsDouble());
    case ValueType::kString:
      return "s:" + v.AsString();
    case ValueType::kBool:
      return v.AsBool() ? "b:1" : "b:0";
    default:
      return "i:" + std::to_string(v.AsInt64());
  }
}

std::vector<std::string> Canon(const std::vector<std::vector<Value>>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    std::string s;
    for (const Value& v : row) {
      s += Repr(v);
      s.push_back('|');
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() { Rebuild(600); }

  void Rebuild(uint64_t num_vertices, const EngineConfig& config = EngineConfig::FromEnv()) {
    server_.reset();
    Graph graph;
    PowerLawParams params;
    params.num_vertices = num_vertices;
    params.avg_degree = 5.0;
    params.seed = 17;
    GeneratePowerLawGraph(params, &graph);
    amt_key_ = graph.AddEdgeProperty("amt", ValueType::kInt64);
    PropertyColumn* amt = graph.edge_props().mutable_column(amt_key_);
    Rng rng(23);
    for (edge_id_t e = 0; e < graph.num_edges(); ++e) {
      amt->SetInt64(e, static_cast<int64_t>(rng.NextBounded(1000)));
    }
    db_ = std::make_unique<Database>(std::move(graph), config);
    db_->BuildPrimaryIndexes();
    elabel_ = db_->graph().catalog().FindEdgeLabel("E");
  }

  // A hub graph for the frame-limit cases: vertex 0 has `fanout`
  // out-edges and carries `blob`; vertex 1 has three and carries `huge`.
  void RebuildHub(uint32_t fanout, const std::string& blob, const std::string& huge) {
    server_.reset();
    Graph graph;
    label_t vlabel = graph.catalog().AddVertexLabel("V");
    label_t elabel = graph.catalog().AddEdgeLabel("E");
    for (uint32_t v = 0; v <= fanout; ++v) graph.AddVertex(vlabel);
    for (vertex_id_t v = 1; v <= fanout; ++v) graph.AddEdge(0, v, elabel);
    for (vertex_id_t v = 2; v <= 4; ++v) graph.AddEdge(1, v, elabel);
    prop_key_t blob_key = graph.AddVertexProperty("blob", ValueType::kString);
    prop_key_t huge_key = graph.AddVertexProperty("huge", ValueType::kString);
    graph.vertex_props().mutable_column(blob_key)->SetString(0, blob);
    graph.vertex_props().mutable_column(huge_key)->SetString(1, huge);
    db_ = std::make_unique<Database>(std::move(graph));
    db_->BuildPrimaryIndexes();
  }

  // Starts (or restarts) the in-process server on an ephemeral port.
  void StartServer(ServerOptions options = {}) {
    server_ = std::make_unique<Server>(db_.get(), options);
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
  }

  // A loopback socket to the server that has sent nothing yet.
  int RawConnect() {
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(server_->port()));
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  }

  std::unique_ptr<Client> Connect() {
    auto client = std::make_unique<Client>();
    std::string error;
    EXPECT_TRUE(client->Connect("127.0.0.1", server_->port(), &error)) << error;
    return client;
  }

  // The in-process oracle: the same text through a Session.
  std::vector<std::vector<Value>> OracleRows(const std::string& text,
                                             const std::vector<std::pair<std::string, Value>>&
                                                 params = {}) {
    Session session(db_.get());
    PreparedQuery* q = session.Prepare(text);
    EXPECT_TRUE(q->ok()) << q->error();
    for (const auto& p : params) EXPECT_TRUE(q->Bind(p.first, p.second)) << q->bind_error();
    RowCollector rows;
    QueryOutcome out = q->Execute(&rows);
    EXPECT_TRUE(out.ok()) << out.error;
    return std::move(rows.rows);
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<Server> server_;
  prop_key_t amt_key_ = kInvalidPropKey;
  label_t elabel_ = kInvalidLabel;
};

// HELLO_OK's flags word has bit0 set: the server always batches
// identical queued executes.
TEST_F(ServerTest, HelloHandshakeReportsBatchingFlag) {
  StartServer();
  int fd = RawConnect();
  std::vector<uint8_t> buf;
  wire::FrameWriter w(&buf);
  w.BeginFrame(wire::FrameType::kHello);
  w.PutU32(wire::kProtocolVersion);
  w.EndFrame();
  ASSERT_EQ(send(fd, buf.data(), buf.size(), MSG_NOSIGNAL), static_cast<ssize_t>(buf.size()));
  uint8_t response[wire::kFrameHeaderBytes + 8] = {0};
  ASSERT_EQ(recv(fd, response, sizeof(response), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(response)));
  EXPECT_EQ(response[4], static_cast<uint8_t>(wire::FrameType::kHelloOk));
  uint32_t flags = 0;
  std::memcpy(&flags, response + wire::kFrameHeaderBytes + 4, sizeof(flags));
  EXPECT_EQ(flags & 1u, 1u);
  close(fd);
}

TEST_F(ServerTest, PreparedPointLookupMatchesSessionOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointLookup);
  ASSERT_TRUE(info.ok()) << info.error;
  ASSERT_EQ(info.param_names.size(), 1u);
  EXPECT_EQ(info.param_names[0], "src");
  ASSERT_EQ(info.columns.size(), 3u);
  EXPECT_EQ(info.columns[0].second, "b");
  EXPECT_EQ(info.columns[2].second, "r2.amt");

  for (vertex_id_t src : {7u, 42u, 123u, 0u}) {
    Client::Result result =
        client->Execute(info.stmt_id, {{"src", Value::Int64(src)}});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_FALSE(result.more);
    auto oracle = OracleRows(kPointLookup, {{"src", Value::Int64(src)}});
    EXPECT_EQ(Canon(result.rows.rows), Canon(oracle)) << "src=" << src;
  }
}

TEST_F(ServerTest, CountStarAndGroupedAggregateMatchOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo count = client->Prepare(kPointCount);
  ASSERT_TRUE(count.ok()) << count.error;
  Client::Result counted = client->Execute(count.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(counted.ok()) << counted.error;
  auto count_oracle = OracleRows(kPointCount, {{"src", Value::Int64(7)}});
  EXPECT_EQ(Canon(counted.rows.rows), Canon(count_oracle));

  Client::PreparedInfo agg = client->Prepare(kGroupedAgg);
  ASSERT_TRUE(agg.ok()) << agg.error;
  Client::Result grouped = client->Execute(agg.stmt_id, {});
  ASSERT_TRUE(grouped.ok()) << grouped.error;
  EXPECT_EQ(Canon(grouped.rows.rows), Canon(OracleRows(kGroupedAgg)));
}

TEST_F(ServerTest, DistinctOverWireMatchesOracle) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kDistinctMid);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {});
  ASSERT_TRUE(result.ok()) << result.error;
  auto canon = Canon(result.rows.rows);
  EXPECT_EQ(canon, Canon(OracleRows(kDistinctMid)));
  // DISTINCT actually deduplicates: every canonical row is unique.
  EXPECT_EQ(std::unique(canon.begin(), canon.end()), canon.end());
}

TEST_F(ServerTest, FetchPagesThroughTheSpool) {
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kWholeGraphRows);
  ASSERT_TRUE(info.ok()) << info.error;
  auto oracle = OracleRows(kWholeGraphRows);
  ASSERT_GT(oracle.size(), 100u);

  // First page: max_rows rounds up to whole batches, so delivered >=
  // requested while more rows remain.
  Client::Result first = client->Execute(info.stmt_id, {}, 0, 100);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_TRUE(first.more);
  EXPECT_GE(first.rows_delivered, 100u);
  EXPECT_LT(first.rows.rows.size(), oracle.size());

  std::vector<std::vector<Value>> all = std::move(first.rows.rows);
  bool more = first.more;
  while (more) {
    Client::Result page = client->Fetch(info.stmt_id, 100);
    ASSERT_TRUE(page.ok()) << page.error;
    for (auto& row : page.rows.rows) all.push_back(std::move(row));
    more = page.more;
  }
  EXPECT_EQ(Canon(all), Canon(oracle));

  // A drained spool fetches zero rows, not an error.
  Client::Result done = client->Fetch(info.stmt_id, 100);
  ASSERT_TRUE(done.ok()) << done.error;
  EXPECT_EQ(done.rows.rows.size(), 0u);
  EXPECT_FALSE(done.more);

  // FETCH on an unknown statement is a typed protocol error.
  Client::Result bad = client->Fetch(9999, 10);
  EXPECT_EQ(bad.status, wire::WireStatus::kProtocolError);
}

// A frame's deadline_ms bounds its execute; a frame with deadline_ms 0
// runs under the database's query_timeout_ms.
TEST_F(ServerTest, DeadlineProducesTimeoutFrame) {
  EngineConfig config;
  config.query_timeout_ms = 1;
  Rebuild(20000, config);
  StartServer();
  auto client = Connect();
  // Whole-graph triangle counting: far beyond a few ms at this size.
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {}, /*deadline_millis=*/2);
  EXPECT_EQ(result.status, wire::WireStatus::kTimeout) << result.error;
  EXPECT_NE(result.error.find("(2 ms)"), std::string::npos) << result.error;
  result = client->Execute(info.stmt_id, {}, /*deadline_millis=*/0);
  EXPECT_EQ(result.status, wire::WireStatus::kTimeout) << result.error;
  EXPECT_NE(result.error.find("(1 ms)"), std::string::npos) << result.error;
  // The connection survives a timed-out request.
  Client::Result retry = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
  EXPECT_TRUE(retry.ok()) << retry.error;
}

TEST_F(ServerTest, OversizedPatternReturnsPlanErrorFrame) {
  StartServer();
  auto client = Connect();
  // 21 query vertices exceed the optimizer's limit of 20: a typed error
  // frame, not a crashed server.
  std::string text = "MATCH (v0)";
  for (int i = 1; i < 21; ++i) text += "-[:E]->(v" + std::to_string(i) + ")";
  text += " WHERE v0.ID = 3 RETURN COUNT(*)";
  Client::PreparedInfo oversized = client->Prepare(text);
  EXPECT_EQ(oversized.status, wire::WireStatus::kPlanError) << oversized.error;
  EXPECT_NE(oversized.error.find("1 to 20"), std::string::npos) << oversized.error;
  // The same connection serves the next request.
  Client::PreparedInfo info = client->Prepare(kPointCount);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(result.ok()) << result.error;
  auto oracle = OracleRows(kPointCount, {{"src", Value::Int64(7)}});
  EXPECT_EQ(Canon(result.rows.rows), Canon(oracle));
}

TEST_F(ServerTest, AdmissionFullReturnsOverloadedFrame) {
  Rebuild(20000);
  db_->admission().Configure({/*max_concurrent=*/1, /*max_queue=*/0, /*queue_timeout_ms=*/0});
  ServerOptions options;
  options.num_workers = 8;
  StartServer(options);

  constexpr int kClients = 6;
  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto client = Connect();
      Client::PreparedInfo info = client->Prepare(
          "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
      ASSERT_TRUE(info.ok()) << info.error;
      Client::Result result = client->Execute(info.stmt_id, {});
      if (result.ok()) {
        ok_count.fetch_add(1);
      } else {
        EXPECT_EQ(result.status, wire::WireStatus::kOverloaded) << result.error;
        overloaded.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  // One slot, no queue: at least one runs, at least one is rejected
  // with the typed OVERLOADED frame, nothing hangs or crashes.
  EXPECT_GE(ok_count.load(), 1);
  EXPECT_GE(overloaded.load(), 1);
  EXPECT_EQ(ok_count.load() + overloaded.load(), kClients);
}

TEST_F(ServerTest, SharedPlanCacheHitsAcrossConnectionsAndInvalidates) {
  StartServer();
  auto a = Connect();
  auto b = Connect();
  ASSERT_TRUE(a->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 1u);
  EXPECT_EQ(db_->plan_cache().hits(), 0u);
  // Second connection, same text: served from the shared plan.
  ASSERT_TRUE(b->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 1u);
  EXPECT_EQ(db_->plan_cache().hits(), 1u);
  // Whitespace variants normalize onto the same entry.
  ASSERT_TRUE(b->Prepare("  MATCH (a)-[r1:E]->(b)-[r2:E]->(c)   WHERE a.ID = $src "
                         "RETURN b, c, r2.amt  ")
                  .ok());
  EXPECT_EQ(db_->plan_cache().hits(), 2u);

  // DDL (index rebuild) bumps the store version: the entry is stale and
  // the next prepare re-optimizes.
  db_->BuildPrimaryIndexes();
  ASSERT_TRUE(a->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 2u);

  // Ingest growing the graph past 2x the planned edge count also
  // invalidates (plan quality heuristic, mirroring Session::Prepare).
  const uint64_t to_add = db_->graph().num_edges() + 1;
  Rng rng(5);
  const uint64_t n = db_->graph().num_vertices();
  for (uint64_t i = 0; i < to_add; ++i) {
    edge_id_t e = db_->graph().AddEdge(static_cast<vertex_id_t>(rng.NextBounded(n)),
                                       static_cast<vertex_id_t>(rng.NextBounded(n)), elabel_);
    db_->graph().edge_props().mutable_column(amt_key_)->SetInt64(e, 1);
    db_->maintainer().OnEdgeInserted(e);
  }
  ASSERT_TRUE(b->Prepare(kPointLookup).ok());
  EXPECT_EQ(db_->plan_cache().misses(), 3u);
  // And the re-prepared plan still answers correctly on the grown graph.
  auto c = Connect();
  Client::PreparedInfo info = c->Prepare(kPointLookup);
  ASSERT_TRUE(info.ok());
  Client::Result result = c->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(Canon(result.rows.rows),
            Canon(OracleRows(kPointLookup, {{"src", Value::Int64(7)}})));
}

// Literal-inlined texts must not grow the plan cache without bound, and
// an evicted entry must not strand the statements that lease from it.
TEST_F(ServerTest, PlanCacheIsBoundedAndLeasesOutliveEviction) {
  StartServer();
  auto client = Connect();
  auto text_of = [](size_t i) {
    return "MATCH (a)-[r1:E]->(b) WHERE a.ID = " + std::to_string(i) + " RETURN b";
  };
  std::vector<uint32_t> stmt_ids;
  for (size_t i = 0; i < PlanCache::kMaxEntries + 40; ++i) {
    Client::PreparedInfo info = client->Prepare(text_of(i));
    ASSERT_TRUE(info.ok()) << info.error;
    stmt_ids.push_back(info.stmt_id);
  }
  EXPECT_LE(db_->plan_cache().size(), PlanCache::kMaxEntries);
  EXPECT_EQ(db_->plan_cache().misses(), PlanCache::kMaxEntries + 40);
  // The earliest statements' entries were evicted; their leases still run.
  for (size_t i = 0; i < 3; ++i) {
    Client::Result result = client->Execute(stmt_ids[i], {});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(Canon(result.rows.rows), Canon(OracleRows(text_of(i))));
  }
}

TEST_F(ServerTest, MalformedFramesFailTypedNotFatal) {
  StartServer();

  {  // A frame advertising an oversized payload is rejected and closed.
    auto client = Connect();
    uint8_t bad[5];
    uint32_t len = wire::kMaxFrameBytes + 1;
    std::memcpy(bad, &len, 4);
    bad[4] = 0x02;
    ASSERT_TRUE(client->SendRaw(bad, sizeof(bad)));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[4], static_cast<uint8_t>(wire::FrameType::kError));
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
    // ...and the server closes the connection afterwards.
    EXPECT_FALSE(client->ReadFrameRaw(&frame, &error));
  }

  {  // Unknown frame type.
    auto client = Connect();
    uint8_t bad[5] = {0, 0, 0, 0, 0x7F};
    ASSERT_TRUE(client->SendRaw(bad, sizeof(bad)));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
  }

  {  // EXECUTE whose payload truncates mid-parameter.
    auto client = Connect();
    std::vector<uint8_t> buf;
    wire::FrameWriter w(&buf);
    w.BeginFrame(wire::FrameType::kExecute);
    w.PutU32(1);  // stmt_id, but the rest of the payload is missing
    w.EndFrame();
    ASSERT_TRUE(client->SendRaw(buf.data(), buf.size()));
    std::vector<uint8_t> frame;
    std::string error;
    ASSERT_TRUE(client->ReadFrameRaw(&frame, &error)) << error;
    EXPECT_EQ(frame[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
  }

  {  // A request before HELLO is rejected on a hand-rolled socket.
    int fd = RawConnect();
    std::vector<uint8_t> buf;
    wire::FrameWriter w(&buf);
    w.BeginFrame(wire::FrameType::kStats);
    w.EndFrame();
    ASSERT_EQ(send(fd, buf.data(), buf.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(buf.size()));
    uint8_t response[6] = {0};
    ssize_t got = recv(fd, response, sizeof(response), MSG_WAITALL);
    ASSERT_EQ(got, static_cast<ssize_t>(sizeof(response)));
    EXPECT_EQ(response[4], static_cast<uint8_t>(wire::FrameType::kError));
    EXPECT_EQ(response[5], static_cast<uint8_t>(wire::WireStatus::kProtocolError));
    close(fd);
  }

  {  // A truncated frame followed by connection abort must not wedge
     // the server; a later client still gets served.
    auto client = Connect();
    uint8_t partial[3] = {9, 0, 0};
    ASSERT_TRUE(client->SendRaw(partial, sizeof(partial)));
    client->Close();
  }

  {  // Random byte fuzz: the server survives garbage from many
     // connections in a row.
    Rng rng(99);
    for (int round = 0; round < 10; ++round) {
      auto client = Connect();
      uint8_t junk[257];
      size_t len = 1 + rng.NextBounded(sizeof(junk) - 1);
      for (size_t i = 0; i < len; ++i) junk[i] = static_cast<uint8_t>(rng.NextBounded(256));
      client->SendRaw(junk, len);
      client->Close();
    }
  }

  // After all of the abuse, a well-behaved client still works.
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(kPointCount);
  ASSERT_TRUE(info.ok()) << info.error;
  Client::Result result = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  EXPECT_TRUE(result.ok()) << result.error;
}

TEST_F(ServerTest, OversizedRequestsFailTypedWithoutSending) {
  StartServer();
  auto client = Connect();
  const std::string text(wire::kMaxFrameBytes, ' ');
  Client::PreparedInfo oversized = client->Prepare(text);
  EXPECT_EQ(oversized.status, wire::WireStatus::kProtocolError);
  EXPECT_NE(oversized.error.find("nothing was sent"), std::string::npos) << oversized.error;
  // Nothing reached the server, so the connection is in step.
  Client::PreparedInfo info = client->Prepare(kPointCount);
  ASSERT_TRUE(info.ok()) << info.error;
  // A parameter name over the 65535-byte str16 limit is refused the same
  // way on the client...
  const std::string long_name(70000, 'p');
  Client::Result refused = client->Execute(info.stmt_id, {{long_name, Value::Int64(7)}});
  EXPECT_EQ(refused.status, wire::WireStatus::kProtocolError);
  // ...and a statement whose PREPARED answer cannot carry it fails typed.
  Client::PreparedInfo unframable =
      client->Prepare("MATCH (a)-[r1:E]->(b) WHERE a.ID = $" + long_name + " RETURN b");
  EXPECT_EQ(unframable.status, wire::WireStatus::kPlanError) << unframable.error;
  Client::Result result = client->Execute(info.stmt_id, {{"src", Value::Int64(7)}});
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(Canon(result.rows.rows), Canon(OracleRows(kPointCount, {{"src", Value::Int64(7)}})));
}

TEST_F(ServerTest, OversizedRowsBatchSplitsOverFrames) {
  // 1030 rows of a 17000-byte string: the first 1024-row batch is over
  // the frame limit, the rows after it and each half of it are not.
  constexpr uint32_t kRows = 1030;
  const std::string blob(17000, 'x');
  RebuildHub(kRows, blob, "");
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info =
      client->Prepare("MATCH (a)-[r:E]->(b) WHERE a.ID = 0 RETURN a.blob, b");
  ASSERT_TRUE(info.ok()) << info.error;

  // max_rows = 1 delivers exactly the first frame: part of the batch.
  Client::Result first = client->Execute(info.stmt_id, {}, 0, /*max_rows=*/1);
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_EQ(first.count, kRows);
  EXPECT_TRUE(first.more);
  EXPECT_GT(first.rows_delivered, 0u);
  EXPECT_LT(first.rows_delivered, 1024u);
  EXPECT_EQ(first.rows.rows.size(), first.rows_delivered);
  Client::Result rest = client->Fetch(info.stmt_id);
  ASSERT_TRUE(rest.ok()) << rest.error;
  EXPECT_FALSE(rest.more);
  EXPECT_EQ(rest.rows.rows.size(), rest.rows_delivered);
  EXPECT_EQ(first.rows_delivered + rest.rows_delivered, kRows);

  std::vector<int64_t> nbrs;
  for (const auto* part : {&first, &rest}) {
    for (const std::vector<Value>& row : part->rows.rows) {
      ASSERT_EQ(row.size(), 2u);
      EXPECT_EQ(row[0].AsString(), blob);
      nbrs.push_back(row[1].AsInt64());
    }
  }
  std::sort(nbrs.begin(), nbrs.end());
  for (uint32_t i = 0; i < nbrs.size(); ++i) EXPECT_EQ(nbrs[i], int64_t{i} + 1);

  // The connection serves the next request.
  Client::Result again = client->Execute(info.stmt_id, {}, 0, /*max_rows=*/1);
  ASSERT_TRUE(again.ok()) << again.error;
  EXPECT_EQ(again.rows_delivered, first.rows_delivered);
}

TEST_F(ServerTest, RowOverFrameLimitAnswersError) {
  RebuildHub(4, "", std::string(wire::kMaxFrameBytes + 1, 'y'));
  StartServer();
  auto client = Connect();
  Client::PreparedInfo huge =
      client->Prepare("MATCH (a)-[r:E]->(b) WHERE a.ID = 1 RETURN a.huge, b");
  ASSERT_TRUE(huge.ok()) << huge.error;
  Client::Result result = client->Execute(huge.stmt_id, {});
  EXPECT_EQ(result.status, wire::WireStatus::kExecError) << result.error;
  EXPECT_NE(result.error.find("frame limit"), std::string::npos) << result.error;

  // The server survives and the connection stays usable.
  Client::PreparedInfo small = client->Prepare("MATCH (a)-[r:E]->(b) WHERE a.ID = 1 RETURN b");
  ASSERT_TRUE(small.ok()) << small.error;
  Client::Result rows = client->Execute(small.stmt_id, {});
  ASSERT_TRUE(rows.ok()) << rows.error;
  EXPECT_EQ(rows.count, 3u);
  EXPECT_TRUE(Connect()->connected());
}

// A long execute must not hold up other connections: after one slice the
// standby takes the loop role over from the thread running it.
TEST_F(ServerTest, LongExecuteHandsTheLoopToTheStandby) {
  Rebuild(20000);
  ServerOptions options;
  options.num_workers = 2;
  StartServer(options);

  // Low IDs are the power-law hubs; these sources have short lists.
  constexpr int kFirstSrc = 10000;
  constexpr int kLookups = 20;
  std::vector<std::vector<std::string>> oracles;
  for (int i = 0; i < kLookups; ++i) {
    oracles.push_back(Canon(OracleRows(kPointLookup, {{"src", Value::Int64(kFirstSrc + i)}})));
  }
  auto slow = Connect();
  auto fast = Connect();
  Client::PreparedInfo triangles = slow->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(triangles.ok()) << triangles.error;
  Client::PreparedInfo point = fast->Prepare(kPointLookup);
  ASSERT_TRUE(point.ok()) << point.error;

  const uint64_t handoffs_before = server_->loop_handoffs();
  std::atomic<bool> slow_done{false};
  std::thread occupant([&] {
    Client::Result r = slow->Execute(triangles.stmt_id, {}, /*deadline_millis=*/60000);
    EXPECT_TRUE(r.ok()) << r.error;
    slow_done.store(true);
  });
  // The triangle count runs on the thread that read it until the
  // standby takes the loop over.
  for (int i = 0; i < 10000 && server_->loop_handoffs() == handoffs_before; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(server_->loop_handoffs(), handoffs_before);
  for (int i = 0; i < kLookups; ++i) {
    Client::Result r = fast->Execute(point.stmt_id, {{"src", Value::Int64(kFirstSrc + i)}});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(Canon(r.rows.rows), oracles[i]) << "src=" << kFirstSrc + i;
  }
  EXPECT_FALSE(slow_done.load()) << "the point lookups waited for the triangle count";
  occupant.join();
  EXPECT_GE(server_->loop_handoffs(), 1u);
}

TEST_F(ServerTest, BatchingGroupsIdenticalExecutesAndMatchesOracle) {
  // One worker plus a slow occupying query (whole-graph triangles on a
  // 20k graph): identical requests queue behind it, so the batching
  // seam deterministically groups them.
  Rebuild(20000);
  ServerOptions batched;
  batched.num_workers = 1;
  StartServer(batched);

  auto oracle = OracleRows(kPointLookup, {{"src", Value::Int64(7)}});

  auto blocker = Connect();
  Client::PreparedInfo blocker_info = blocker->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(blocker_info.ok());

  constexpr int kFollowers = 3;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<Client::PreparedInfo> infos;
  for (int i = 0; i < kFollowers; ++i) {
    clients.push_back(Connect());
    infos.push_back(clients.back()->Prepare(kPointLookup));
    ASSERT_TRUE(infos.back().ok());
  }

  std::thread occupant([&] {
    Client::Result r = blocker->Execute(blocker_info.stmt_id, {});
    EXPECT_TRUE(r.ok()) << r.error;
  });
  // Give the occupying execute time to claim the single worker, then
  // fire the identical requests; they queue and group.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::vector<std::thread> threads;
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      Client::Result r = clients[i]->Execute(infos[i].stmt_id, {{"src", Value::Int64(7)}});
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(Canon(r.rows.rows), Canon(oracle));
    });
  }
  occupant.join();
  for (std::thread& t : threads) t.join();
  EXPECT_GE(server_->batch_saved(), 1u);
}

TEST_F(ServerTest, EightClientSoakWithHighCacheHitRate) {
  StartServer();
  auto point_oracle = [&](vertex_id_t src) {
    return Canon(OracleRows(kPointLookup, {{"src", Value::Int64(src)}}));
  };
  std::vector<std::vector<std::string>> oracles;
  for (vertex_id_t src = 0; src < 16; ++src) oracles.push_back(point_oracle(src));
  auto agg_oracle = Canon(OracleRows(kGroupedAgg));
  auto distinct_oracle = Canon(OracleRows(kDistinctMid));

  constexpr int kClients = 8;
  constexpr int kRounds = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      auto client = Connect();
      Rng rng(static_cast<uint64_t>(1000 + t));
      for (int round = 0; round < kRounds; ++round) {
        // Statement churn every round: prepares keep flowing through
        // the shared cache, which is what the hit-rate bar measures.
        Client::PreparedInfo point = client->Prepare(kPointLookup);
        ASSERT_TRUE(point.ok()) << point.error;
        for (int i = 0; i < 4; ++i) {
          vertex_id_t src = static_cast<vertex_id_t>(rng.NextBounded(16));
          Client::Result r = client->Execute(point.stmt_id, {{"src", Value::Int64(src)}});
          ASSERT_TRUE(r.ok()) << r.error;
          EXPECT_EQ(Canon(r.rows.rows), oracles[src]);
        }
        Client::PreparedInfo agg = client->Prepare(kGroupedAgg);
        ASSERT_TRUE(agg.ok()) << agg.error;
        Client::Result ar = client->Execute(agg.stmt_id, {});
        ASSERT_TRUE(ar.ok()) << ar.error;
        EXPECT_EQ(Canon(ar.rows.rows), agg_oracle);
        Client::PreparedInfo distinct = client->Prepare(kDistinctMid);
        ASSERT_TRUE(distinct.ok()) << distinct.error;
        Client::Result dr = client->Execute(distinct.stmt_id, {});
        ASSERT_TRUE(dr.ok()) << dr.error;
        EXPECT_EQ(Canon(dr.rows.rows), distinct_oracle);
        std::string error;
        ASSERT_TRUE(client->CloseStatement(point.stmt_id, &error)) << error;
        ASSERT_TRUE(client->CloseStatement(agg.stmt_id, &error)) << error;
        ASSERT_TRUE(client->CloseStatement(distinct.stmt_id, &error)) << error;
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const uint64_t hits = db_->plan_cache().hits();
  const uint64_t misses = db_->plan_cache().misses();
  ASSERT_GT(hits + misses, 0u);
  // 3 texts, 8 clients x 8 rounds of prepares: after the 3 warmup
  // misses everything is a shared-plan hit (>= 90% acceptance bar).
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(hits + misses), 0.9);
  EXPECT_EQ(server_->queries(), uint64_t{kClients * kRounds * 6});
}

TEST_F(ServerTest, CancelStopsInflightExecute) {
  Rebuild(20000);
  StartServer();
  auto client = Connect();
  Client::PreparedInfo info = client->Prepare(
      "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
  ASSERT_TRUE(info.ok()) << info.error;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    client->Cancel();
  });
  Client::Result result = client->Execute(info.stmt_id, {});
  canceller.join();
  // Either the cancel landed mid-execute (CANCELLED) or the query beat
  // it (OK) — on the 20k graph the former, but don't flake on fast
  // machines.
  if (!result.ok()) {
    EXPECT_EQ(result.status, wire::WireStatus::kCancelled) << result.error;
    // The connection stays usable.
    Client::Result retry = client->Execute(info.stmt_id, {}, /*deadline_millis=*/60000);
    EXPECT_TRUE(retry.ok()) << retry.error;
  }
}

TEST_F(ServerTest, CleanShutdownDrainsInflightQueries) {
  Rebuild(20000);
  StartServer();
  constexpr int kClients = 4;
  std::atomic<int> responded{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&] {
      auto client = Connect();
      Client::PreparedInfo info = client->Prepare(
          "MATCH (a)-[r1:E]->(b)-[r2:E]->(c), (a)-[r3:E]->(c) RETURN COUNT(*)");
      ASSERT_TRUE(info.ok()) << info.error;
      Client::Result result = client->Execute(info.stmt_id, {});
      // Stop() cancels in-flight work; any typed outcome (or a closed
      // socket) is acceptable, hanging is not.
      responded.fetch_add(1);
      (void)result;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server_->Stop();  // must not hang with executes in flight
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(responded.load(), kClients);
}

}  // namespace
}  // namespace aplus
