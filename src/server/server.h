#ifndef APLUS_SERVER_SERVER_H_
#define APLUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/database.h"
#include "server/protocol.h"
#include "storage/value.h"
#include "util/thread_pool.h"

namespace aplus {

// aplusd server configuration. Env defaults (APLUS_SERVER_BATCH,
// APLUS_QUERY_TIMEOUT_MS) are resolved by ServerOptions::FromEnv so the
// aplusd binary and in-process test servers agree on knob semantics.
struct ServerOptions {
  // TCP port to listen on (loopback + any). 0 binds an ephemeral port —
  // tests read the real one back from Server::port().
  int port = 0;
  // Request worker threads (PREPARE/EXECUTE run here, off the I/O loop).
  int num_workers = 4;
  // Deadline applied to EXECUTE frames that carry deadline_ms == 0.
  // < 0 defers to APLUS_QUERY_TIMEOUT_MS.
  int64_t default_deadline_millis = -1;
  // Groups concurrent identical EXECUTEs into one morsel-parallel pass
  // (see Server's batching notes). APLUS_SERVER_BATCH=off disables.
  bool batching = true;
  int listen_backlog = 64;

  // Applies APLUS_SERVER_BATCH=on|off on top of the defaults above.
  static ServerOptions FromEnv();
};

// The aplusd front-end: accepts wire-protocol connections
// (server/protocol.h), prepares statements through the database's
// PlanCache (shared with every embedded Session), and executes them on a TaskQueue worker pool while a
// single poll(2) loop thread owns all socket I/O.
//
// Threading model:
//   * One I/O loop thread: accept, read, frame parsing, response writes,
//     FETCH/CLOSE/STATS (spool slicing only — no execution), connection
//     teardown. Sockets are non-blocking; a self-pipe wakes the loop for
//     worker completions and Stop().
//   * num_workers TaskQueue threads: PREPARE (parse + optimize on cache
//     miss) and EXECUTE (bind + run + serialize the result spool). Each
//     connection has at most ONE job in flight; frames that arrive while
//     it is busy are deferred in arrival order, except CANCEL, which is
//     handled out-of-band (PreparedQuery::Cancel is the one thread-safe
//     entry point). A connection is never destroyed while busy, so
//     worker jobs may touch their Connection/Statement freely.
//   * Queries execute with num_threads = 1: the engine's fork-join pool
//     serializes whole parallel jobs, so server throughput comes from
//     cross-connection concurrency, not per-query parallelism. The one
//     exception is a batch group (below), which amortizes one pass
//     across its members and may go morsel-parallel.
//
// Request batching (APLUS_SERVER_BATCH): concurrent EXECUTE frames that
// hit the same cached plan entry with byte-identical parameters,
// deadline and max_rows are grouped; the first worker to start seals the
// group, executes ONCE (num_threads = min(group, 4)), and every member
// connection receives its own copy of the result spool. Per-connection
// ordering makes same-connection duplicates impossible, so batching
// only ever merges across connections.
//
// Results stream into a per-statement spool of serialized kRows frames;
// the EXECUTE response carries up to max_rows rows (rounded up to whole
// batches) and sets more=1 when FETCH can page the rest.
class Server {
 public:
  Server(Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens + spawns the loop and worker threads. Returns false
  // with *error set when the port cannot be bound.
  bool Start(std::string* error);

  // Graceful shutdown: stops accepting, cancels in-flight executes via
  // their ExecTokens, drains worker completions, flushes pending
  // responses best-effort, closes every connection. Idempotent.
  void Stop();

  // The bound port (the real one when options.port was 0).
  int port() const { return port_; }

  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  // Executes answered from a batch leader's pass instead of running.
  uint64_t batch_saved() const { return batch_saved_.load(std::memory_order_relaxed); }

 private:
  // One contiguous slice of a statement's result spool: a serialized
  // kRows frame and the row count it carries.
  struct SpoolChunk {
    size_t offset = 0;
    size_t len = 0;
    uint64_t rows = 0;
  };

  struct Statement {
    PlanCache::Lease lease;  // returned to the cache when the statement dies
    std::vector<uint8_t> spool;  // concatenated kRows frames
    std::vector<SpoolChunk> chunks;
    size_t next_chunk = 0;  // FETCH cursor
    uint64_t count = 0;
    double seconds = 0.0;
  };

  struct Connection {
    int fd = -1;
    std::vector<uint8_t> in;
    size_t in_start = 0;  // parsed prefix of `in`
    std::vector<uint8_t> out;
    size_t out_start = 0;  // written prefix of `out`
    bool hello_done = false;
    bool busy = false;     // worker job in flight
    bool closing = false;  // drain `out`, then close
    bool dead = false;     // socket failed; reap once not busy
    uint32_t next_stmt_id = 1;
    std::unordered_map<uint32_t, std::unique_ptr<Statement>> stmts;
    // Frames received while busy, replayed in order on completion.
    std::deque<std::vector<uint8_t>> deferred;
    // The executing statement's query, for out-of-band CANCEL.
    std::atomic<PreparedQuery*> inflight{nullptr};
  };

  // A dispatched EXECUTE: parsed request + (for batching) the raw
  // parameter bytes that make up the group key.
  struct ExecRequest {
    Connection* conn = nullptr;
    Statement* stmt = nullptr;
    uint32_t stmt_id = 0;
    int64_t deadline_millis = 0;  // resolved (0 frame value applied)
    uint64_t max_rows = 0;        // 0 = all
    std::vector<std::pair<std::string, Value>> params;
    std::string batch_key;  // empty when batching is off
  };

  struct BatchGroup {
    // shared_ptr: requests are captured in std::function job closures,
    // which require copyable captures.
    std::vector<std::shared_ptr<ExecRequest>> members;
    bool sealed = false;
  };

  // Worker -> loop completion: bytes to append to conn->out, plus
  // whether the (failed-prepare) statement should be dropped.
  struct Completion {
    Connection* conn = nullptr;
    std::vector<uint8_t> response;
    uint32_t drop_stmt_id = 0;  // 0 = keep
  };

  void LoopThread();
  void AcceptNew();
  void ReadFrom(Connection* conn);
  void ParseFrames(Connection* conn);
  // Dispatches one complete frame. Returns false when the connection
  // must close (protocol violation).
  bool HandleFrame(Connection* conn, const wire::FrameView& frame);
  void HandleHello(Connection* conn, const wire::FrameView& frame);
  void DispatchPrepare(Connection* conn, const wire::FrameView& frame);
  void DispatchExecute(Connection* conn, const wire::FrameView& frame);
  void HandleFetch(Connection* conn, const wire::FrameView& frame);
  void HandleCancel(Connection* conn);
  void HandleCloseStmt(Connection* conn, const wire::FrameView& frame);
  void HandleStats(Connection* conn);

  // Worker-side bodies.
  void RunPrepare(Connection* conn, uint32_t stmt_id, std::string text);
  void RunExecuteGroup(const std::string& group_key, std::shared_ptr<ExecRequest> leader);

  // Appends the post-execute response for `req` (rows up to max_rows,
  // then DONE/ERROR) into `out`, advancing stmt->next_chunk.
  void BuildExecuteResponse(const QueryOutcome& outcome, ExecRequest* req,
                            std::vector<uint8_t>* out);

  void PostCompletion(Completion completion);
  void DrainCompletions();
  void FinishJob(Connection* conn);  // busy=false + replay deferred
  void SendError(Connection* conn, wire::WireStatus status, const std::string& message);
  void FlushOut(Connection* conn);
  void DestroyConnection(Connection* conn);
  void WakeLoop();

  Database* db_;
  ServerOptions options_;
  TaskQueue workers_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] in the poll set
  int port_ = 0;
  std::thread loop_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  std::unordered_set<Connection*> conns_;  // loop-thread only

  std::mutex completions_mu_;
  std::deque<Completion> completions_;

  std::mutex batch_mu_;
  std::unordered_map<std::string, std::shared_ptr<BatchGroup>> batch_pending_;

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batch_saved_{0};
};

}  // namespace aplus

#endif  // APLUS_SERVER_SERVER_H_
