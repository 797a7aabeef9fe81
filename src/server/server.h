#ifndef APLUS_SERVER_SERVER_H_
#define APLUS_SERVER_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
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

namespace aplus {

// aplusd server configuration. The engine settings a served query runs
// under (deadline, memory caps, admission) are the database's
// EngineConfig, exactly as for embedded callers.
struct ServerOptions {
  // TCP port to listen on (loopback + any). 0 binds an ephemeral port —
  // tests read the real one back from Server::port().
  int port = 0;
  // The maximum number of PREPARE/EXECUTE requests running at once. The
  // server runs num_workers + 1 threads: one more than the running
  // requests, so one thread is always free to hold the loop role.
  int num_workers = 4;
};

// The aplusd front-end: accepts wire-protocol connections
// (server/protocol.h), prepares statements through the database's
// PlanCache (shared with every embedded Session), and runs each request
// on the thread that read it (Leader/Followers, Schmidt et al., PLoP
// 2000).
//
// Threading model:
//   * One pool of num_workers + 1 threads. Exactly one thread at a time
//     holds the loop role: poll(2), accept, reads, frame parsing,
//     FETCH/CLOSE/STATS (spool slicing only — no execution), response
//     writes and connection teardown. Sockets are non-blocking; a
//     self-pipe wakes the poll for completions posted by other threads
//     and for Stop().
//   * PREPARE (parse + optimize on cache miss) and EXECUTE (bind + run +
//     serialize the result spool) are jobs; at most num_workers run at
//     once. When a slot is free the role holder runs the next job
//     itself: it lends the role, runs the job, takes the role back and
//     writes the response straight to the socket — no cross-thread wake
//     on the common path. Jobs that find every slot busy queue (batch
//     groups form there) and start on the thread that frees a slot.
//   * Overrun handoff: one idle thread is the standby. It wakes once per
//     kLoopSlice and takes over a role that has been lent to one job for
//     longer than a slice; the overrunning thread then posts its response
//     through the completion queue and rejoins the pool. So a running
//     job stalls the loop (and CANCEL) for at most one slice. The standby
//     parks after kParkSlices slices without a lent job, and the next
//     lend wakes it.
//   * Each connection has at most ONE job in flight; frames that arrive
//     while it is busy are deferred in arrival order, except CANCEL,
//     which is handled out-of-band (PreparedQuery::Cancel is the one
//     thread-safe entry point). A connection is never destroyed while
//     busy, so a job may touch its Connection/Statement freely; the loop
//     role and its state pass between threads under `mu_`.
//   * Queries execute with num_threads = 1: the engine's fork-join pool
//     serializes whole parallel jobs, so server throughput comes from
//     cross-connection concurrency, not per-query parallelism. The one
//     exception is a batch group (below), which amortizes one pass
//     across its members and may go morsel-parallel.
//
// Request batching (always on; HELLO_OK flags bit0 says so): EXECUTE
// frames that wait in the job queue together (behind busy slots, or
// read in one poll) and hit the same cached plan entry with
// byte-identical parameters, deadline and max_rows are grouped; the
// group executes ONCE when it starts (num_threads = min(group, 4)), and
// every member connection receives its own copy of the result spool.
// Per-connection ordering makes same-connection duplicates impossible,
// so batching only ever merges across connections. An EXECUTE whose
// deadline_ms is 0 runs under the database's config.query_timeout_ms.
//
// Results stream into a per-statement spool of serialized kRows frames
// (a batch too large for one frame is split over several); the EXECUTE
// response carries up to max_rows rows (rounded up to whole frames) and
// sets more=1 when FETCH can page the rest.
class Server {
 public:
  // How long one job may hold the loop role before the standby takes it
  // over, and so the bound on reading a CANCEL of a running request.
  static constexpr std::chrono::milliseconds kLoopSlice{1};
  // Slices without a lent job after which the standby parks.
  static constexpr int kParkSlices = 100;

  Server(Database* db, const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds + listens + spawns the pool. Returns false with *error set
  // when the port cannot be bound.
  bool Start(std::string* error);

  // Graceful shutdown: stops accepting, cancels in-flight executes via
  // their ExecTokens, drains job completions, flushes pending responses
  // best-effort, closes every connection. Idempotent.
  void Stop();

  // The bound port (the real one when options.port was 0).
  int port() const { return port_; }

  uint64_t queries() const { return queries_.load(std::memory_order_relaxed); }
  // Executes answered from a batch leader's pass instead of running.
  uint64_t batch_saved() const { return batch_saved_.load(std::memory_order_relaxed); }
  // Times the standby took over the loop role from an overrunning job.
  uint64_t loop_handoffs() const { return loop_handoffs_.load(std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

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
    bool busy = false;     // job queued or running
    bool closing = false;  // drain `out`, then close
    bool dead = false;     // socket failed; reap once not busy
    uint32_t next_stmt_id = 1;
    std::unordered_map<uint32_t, std::unique_ptr<Statement>> stmts;
    // Frames received while busy, replayed in order on completion.
    std::deque<std::vector<uint8_t>> deferred;
    // The executing statement's query, for out-of-band CANCEL.
    std::atomic<PreparedQuery*> inflight{nullptr};
  };

  // A parsed EXECUTE plus the bytes of its batch group key.
  struct ExecRequest {
    Connection* conn = nullptr;
    Statement* stmt = nullptr;
    int64_t deadline_millis = -1;  // < 0: the database's config
    uint64_t max_rows = 0;         // 0 = all
    std::vector<std::pair<std::string, Value>> params;
    std::string batch_key;
  };

  // One PREPARE, or one EXECUTE with the identical ones batched onto it.
  struct Job {
    Connection* conn = nullptr;  // PREPARE
    uint32_t stmt_id = 0;        // PREPARE
    std::string text;            // PREPARE
    // EXECUTE: the group leader first; empty for PREPARE.
    std::vector<std::unique_ptr<ExecRequest>> execs;
  };

  // A finished job's bytes for one connection, plus whether the
  // (failed-prepare) statement should be dropped.
  struct Completion {
    Connection* conn = nullptr;
    std::vector<uint8_t> response;
    uint32_t drop_stmt_id = 0;  // 0 = keep
  };

  struct SpoolSink;

  // kVacant until the first pool thread takes the role; kLent while its
  // holder runs a job and may take it back.
  enum class Role { kVacant, kHeld, kLent };

  // Pool threads: run queued jobs, hold the loop role, stand by.
  void PoolThread();
  // Waits as the standby; true when it took over the loop role.
  bool Standby(std::unique_lock<std::mutex>* lock);
  // Runs the loop role until it is handed off or the server stopped.
  void LoopRole();
  // Runs the next startable job, if any, on the role holder. False when
  // the role was handed off while the job ran.
  bool RunInline();
  void RunPooledJob(std::unique_lock<std::mutex>* lock);
  bool JobStartable() const;                    // requires mu_
  std::unique_ptr<Job> StartJobLocked();        // requires mu_
  std::vector<Completion> RunJob(Job* job);

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

  // Job bodies.
  Completion RunPrepare(Connection* conn, uint32_t stmt_id, const std::string& text);
  std::vector<Completion> RunExecuteGroup(Job* job);

  // Appends the post-execute response for `req` (rows up to max_rows,
  // then DONE/ERROR) into `out`, advancing stmt->next_chunk.
  void BuildExecuteResponse(const QueryOutcome& outcome, ExecRequest* req,
                            std::vector<uint8_t>* out);

  void DrainCompletions();
  // Appends a completion to its connection, ends the job, flushes.
  void Deliver(Completion* completion);
  void FinishJob(Connection* conn);  // busy=false + replay deferred
  void SendError(Connection* conn, wire::WireStatus status, const std::string& message);
  void FlushOut(Connection* conn);
  void DestroyConnection(Connection* conn);
  void WakeLoop();

  Database* db_;
  ServerOptions options_;
  int max_jobs_ = 1;  // options_.num_workers, at least 1

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] in the poll set
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  // Loop-role state: touched only by the role holder.
  std::unordered_set<Connection*> conns_;
  bool listener_open_ = true;

  // Guards everything below, and hands the loop role between threads.
  std::mutex mu_;
  std::condition_variable idle_cv_;     // idle threads: startable job, standby vacancy, exit
  std::condition_variable standby_cv_;  // the standby: unpark, exit
  Role role_ = Role::kVacant;
  uint64_t lent_seq_ = 0;  // bumped per lend
  Clock::time_point lent_start_;
  bool has_standby_ = false;
  bool standby_parked_ = false;
  bool exit_ = false;
  int in_flight_ = 0;  // jobs running
  std::deque<std::unique_ptr<Job>> jobs_;  // waiting for a slot
  // Queued EXECUTE jobs by batch key; a job leaves when it starts.
  std::unordered_map<std::string, Job*> batch_pending_;
  std::deque<Completion> completions_;  // posted by non-holders

  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> batch_saved_{0};
  std::atomic<uint64_t> loop_handoffs_{0};

  // num_workers + 1 threads; declared last, joined by Stop().
  std::vector<std::thread> pool_;
};

}  // namespace aplus

#endif  // APLUS_SERVER_SERVER_H_
