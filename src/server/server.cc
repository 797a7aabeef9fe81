#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstddef>
#include <cstring>

#include "util/logging.h"

namespace aplus {

namespace {

bool SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

// Frames a connection may queue while a job is in flight before the
// server declares it hostile and closes it (bounds deferred memory).
constexpr size_t kMaxDeferredFrames = 1024;

constexpr int kListenBacklog = 64;

}  // namespace

Server::Server(Database* db, const ServerOptions& options)
    : db_(db), options_(options), max_jobs_(std::max(1, options.num_workers)) {}

Server::~Server() { Stop(); }

bool Server::Start(std::string* error) {
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "bind port " + std::to_string(options_.port) + ": " + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (listen(listen_fd_, kListenBacklog) != 0) {
    *error = std::string("listen: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (pipe(wake_fds_) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  SetNonBlocking(listen_fd_);
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);
  running_.store(true, std::memory_order_release);
  stopping_.store(false, std::memory_order_release);
  for (int i = 0; i <= max_jobs_; ++i) pool_.emplace_back([this] { PoolThread(); });
  return true;
}

void Server::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true, std::memory_order_release);
  WakeLoop();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
  // The loop reaped every connection before the pool exited; only the
  // pipes and (possibly) the listener remain.
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      close(fd);
      fd = -1;
    }
  }
}

void Server::WakeLoop() {
  if (wake_fds_[1] < 0) return;
  uint8_t byte = 1;
  ssize_t rc = write(wake_fds_[1], &byte, 1);
  (void)rc;  // EAGAIN just means a wakeup is already pending
}

void Server::PoolThread() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!exit_) {
    if (JobStartable()) {
      RunPooledJob(&lock);
      continue;
    }
    bool take_role = false;
    if (role_ == Role::kVacant) {
      role_ = Role::kHeld;
      take_role = true;
    } else if (!has_standby_) {
      has_standby_ = true;
      take_role = Standby(&lock);
      has_standby_ = false;
      // An idle thread becomes the next standby.
      if (take_role) idle_cv_.notify_one();
    } else {
      idle_cv_.wait(lock);
    }
    if (take_role) {
      lock.unlock();
      LoopRole();
      lock.lock();
    }
  }
}

bool Server::Standby(std::unique_lock<std::mutex>* lock) {
  uint64_t seen = lent_seq_;
  int quiet = 0;
  while (!exit_) {
    if (role_ == Role::kLent) {
      const Clock::time_point due = lent_start_ + kLoopSlice;
      if (Clock::now() >= due) {
        role_ = Role::kHeld;
        loop_handoffs_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      standby_cv_.wait_until(*lock, due);
      continue;
    }
    if (lent_seq_ != seen) {
      seen = lent_seq_;
      quiet = 0;
    } else if (++quiet >= kParkSlices) {
      // An idle server should not wake every slice: park until the next
      // lend (RunInline) or exit.
      standby_parked_ = true;
      standby_cv_.wait(*lock, [&] { return !standby_parked_ || exit_; });
      seen = lent_seq_;
      quiet = 0;
      continue;
    }
    standby_cv_.wait_for(*lock, kLoopSlice);
  }
  return false;
}

bool Server::JobStartable() const { return !jobs_.empty() && in_flight_ < max_jobs_; }

Server::Connection* Server::StartJobLocked() {
  Connection* conn = jobs_.front();
  jobs_.pop_front();
  ++in_flight_;
  return conn;
}

bool Server::RunInline() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!JobStartable()) return true;
  Connection* conn = StartJobLocked();
  const uint64_t seq = ++lent_seq_;
  role_ = Role::kLent;
  lent_start_ = Clock::now();
  if (standby_parked_) {
    standby_parked_ = false;
    standby_cv_.notify_one();
  }
  if (JobStartable()) idle_cv_.notify_one();
  lock.unlock();

  RunJob(conn);

  lock.lock();
  --in_flight_;
  if (role_ == Role::kLent && lent_seq_ == seq) {
    // Nobody took the role over: answer straight from this thread.
    role_ = Role::kHeld;
    lock.unlock();
    Deliver(conn);
    return true;
  }
  // The standby runs the loop now; hand it the response.
  completions_.push_back(conn);
  lock.unlock();
  WakeLoop();
  return false;
}

void Server::RunPooledJob(std::unique_lock<std::mutex>* lock) {
  Connection* conn = StartJobLocked();
  if (JobStartable()) idle_cv_.notify_one();
  lock->unlock();
  RunJob(conn);
  lock->lock();
  --in_flight_;
  completions_.push_back(conn);
  lock->unlock();
  WakeLoop();
  lock->lock();
}

void Server::RunJob(Connection* conn) {
  if (conn->request.prepare) {
    RunPrepare(conn);
  } else {
    RunExecute(conn);
  }
}

void Server::LoopRole() {
  std::vector<pollfd> pfds;
  std::vector<Connection*> pfd_conns;
  while (true) {
    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping && listener_open_) {
      close(listen_fd_);
      listen_fd_ = -1;
      listener_open_ = false;
      // Drain in-flight executes promptly: every busy connection's
      // query gets a cooperative cancel.
      for (Connection* conn : conns_) {
        conn->closing = true;
        if (conn->busy) {
          PreparedQuery* q = conn->inflight.load(std::memory_order_acquire);
          if (q != nullptr) q->Cancel();
        }
      }
    }

    // Reap connections with no job in flight and nothing left to say.
    // While stopping, pending output is best-effort: one last flush
    // attempt happened below; a stalled peer does not stall shutdown.
    for (auto it = conns_.begin(); it != conns_.end();) {
      Connection* conn = *it;
      const bool drained = conn->out_start >= conn->out.size();
      if (!conn->busy && (conn->dead || stopping || (conn->closing && drained))) {
        it = conns_.erase(it);
        DestroyConnection(conn);
      } else {
        ++it;
      }
    }
    if (stopping && conns_.empty()) break;

    // A free slot runs the next job right here: one job per poll, so
    // that other connections' answers and requests keep moving.
    if (!RunInline()) return;

    pfds.clear();
    pfd_conns.clear();
    pfds.push_back({wake_fds_[0], POLLIN, 0});
    pfd_conns.push_back(nullptr);
    if (listener_open_) {
      pfds.push_back({listen_fd_, POLLIN, 0});
      pfd_conns.push_back(nullptr);
    }
    for (Connection* conn : conns_) {
      if (conn->dead) continue;
      short events = 0;
      if (!conn->closing) events |= POLLIN;
      if (conn->out_start < conn->out.size()) events |= POLLOUT;
      if (events == 0) continue;
      pfds.push_back({conn->fd, events, 0});
      pfd_conns.push_back(conn);
    }

    // A startable job waits only for a look at the sockets.
    bool startable;
    {
      std::lock_guard<std::mutex> lock(mu_);
      startable = JobStartable();
    }
    int rc = poll(pfds.data(), static_cast<nfds_t>(pfds.size()), startable ? 0 : 100);
    if (rc < 0 && errno != EINTR) break;

    // Self-pipe: drain it, then the completion queue. Every completion
    // is posted before its wake byte, so none is left behind.
    if (pfds[0].revents & POLLIN) {
      uint8_t buf[64];
      while (read(wake_fds_[0], buf, sizeof(buf)) > 0) {
      }
      DrainCompletions();
    }

    size_t base = 1;
    if (listener_open_) {
      if (pfds[1].revents & POLLIN) AcceptNew();
      base = 2;
    }
    for (size_t i = base; i < pfds.size(); ++i) {
      Connection* conn = pfd_conns[i];
      if (conn->dead) continue;
      if (pfds[i].revents & (POLLERR | POLLHUP)) {
        // POLLHUP with readable bytes still delivers them below; a
        // half-closed peer that sent a full request gets its response
        // attempt before the reap notices the write side failed.
        if (!(pfds[i].revents & POLLIN)) conn->dead = true;
      }
      if (pfds[i].revents & POLLIN) ReadFrom(conn);
      if (pfds[i].revents & POLLOUT) FlushOut(conn);
    }
  }
  // Stopped: the pool exits with the loop.
  std::lock_guard<std::mutex> lock(mu_);
  exit_ = true;
  idle_cv_.notify_all();
  standby_cv_.notify_all();
}

void Server::AcceptNew() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Connection* conn = new Connection();
    conn->fd = fd;
    conns_.insert(conn);
  }
}

void Server::ReadFrom(Connection* conn) {
  while (true) {
    uint8_t buf[64 * 1024];
    ssize_t n = read(conn->fd, buf, sizeof(buf));
    if (n > 0) {
      conn->in.insert(conn->in.end(), buf, buf + n);
      if (static_cast<size_t>(n) < sizeof(buf)) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    conn->dead = true;  // EOF or hard error
    break;
  }
  if (!conn->dead) {
    ParseFrames(conn);
    FlushOut(conn);
  }
}

void Server::ParseFrames(Connection* conn) {
  while (!conn->closing && !conn->dead) {
    wire::FrameView view;
    size_t consumed = 0;
    std::string error;
    if (!wire::ExtractFrame(conn->in.data() + conn->in_start, conn->in.size() - conn->in_start,
                            &consumed, &view, &error)) {
      if (!error.empty()) {
        SendError(conn, wire::WireStatus::kProtocolError, error);
        conn->closing = true;
      }
      break;  // incomplete: wait for more bytes
    }
    if (conn->busy) {
      // One job in flight per connection: CANCEL goes out-of-band,
      // everything else replays in order once the job completes.
      if (view.type == wire::FrameType::kCancel) {
        HandleCancel(conn);
      } else if (conn->deferred.size() >= kMaxDeferredFrames) {
        SendError(conn, wire::WireStatus::kProtocolError, "too many frames queued mid-request");
        conn->closing = true;
      } else {
        const uint8_t* start = conn->in.data() + conn->in_start;
        conn->deferred.emplace_back(start, start + consumed);
      }
      conn->in_start += consumed;
      continue;
    }
    conn->in_start += consumed;
    if (!HandleFrame(conn, view)) conn->closing = true;
  }
  if (conn->in_start == conn->in.size()) {
    conn->in.clear();
    conn->in_start = 0;
  } else if (conn->in_start > 64 * 1024) {
    conn->in.erase(conn->in.begin(), conn->in.begin() + static_cast<ptrdiff_t>(conn->in_start));
    conn->in_start = 0;
  }
}

bool Server::HandleFrame(Connection* conn, const wire::FrameView& frame) {
  if (!conn->hello_done && frame.type != wire::FrameType::kHello) {
    SendError(conn, wire::WireStatus::kProtocolError, "expected HELLO");
    return false;
  }
  switch (frame.type) {
    case wire::FrameType::kHello:
      HandleHello(conn, frame);
      return !conn->closing;
    case wire::FrameType::kPrepare:
      DispatchPrepare(conn, frame);
      return true;
    case wire::FrameType::kExecute:
      DispatchExecute(conn, frame);
      return true;
    case wire::FrameType::kFetch:
      HandleFetch(conn, frame);
      return true;
    case wire::FrameType::kCancel:
      HandleCancel(conn);
      return true;
    case wire::FrameType::kClose:
      HandleCloseStmt(conn, frame);
      return true;
    case wire::FrameType::kStats:
      HandleStats(conn);
      return true;
    default:
      SendError(conn, wire::WireStatus::kProtocolError,
                "unexpected frame type " + std::to_string(static_cast<int>(frame.type)));
      return false;
  }
}

void Server::HandleHello(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t version = 0;
  if (!r.GetU32(&version) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed HELLO");
    conn->closing = true;
    return;
  }
  if (version != wire::kProtocolVersion) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unsupported protocol version " + std::to_string(version));
    conn->closing = true;
    return;
  }
  conn->hello_done = true;
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kHelloOk);
  w.PutU32(wire::kProtocolVersion);
  w.PutU32(0u);  // flags: none (bit 0 would announce request batching)
  w.EndFrame();
}

void Server::DispatchPrepare(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  Request& req = conn->request;
  if (!r.GetStr32(&req.text) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed PREPARE");
    conn->closing = true;
    return;
  }
  req.prepare = true;
  req.stmt_id = conn->next_stmt_id++;
  auto stmt = std::make_unique<Statement>();
  req.stmt = stmt.get();
  conn->stmts[req.stmt_id] = std::move(stmt);
  Enqueue(conn);
}

void Server::DispatchExecute(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  Request& req = conn->request;
  uint32_t stmt_id = 0;
  uint32_t deadline_ms = 0;
  uint32_t num_params = 0;
  bool ok = r.GetU32(&stmt_id) && r.GetU32(&deadline_ms) && r.GetU64(&req.max_rows) &&
            r.GetU32(&num_params);
  // Parameters parse into the slots of the previous request, so a
  // repeated request reuses their names' storage.
  size_t parsed = 0;
  for (; ok && parsed < num_params; ++parsed) {
    if (parsed == req.params.size()) req.params.emplace_back();
    auto& [name, value] = req.params[parsed];
    uint8_t tag = 0;
    ok = r.GetStr16(&name) && r.GetU8(&tag);
    if (!ok) break;
    switch (static_cast<wire::ParamTag>(tag)) {
      case wire::ParamTag::kInt64: {
        int64_t v = 0;
        ok = r.GetI64(&v);
        value = Value::Int64(v);
        break;
      }
      case wire::ParamTag::kDouble: {
        double v = 0;
        ok = r.GetF64(&v);
        value = Value::Double(v);
        break;
      }
      case wire::ParamTag::kString: {
        std::string v;
        ok = r.GetStr32(&v);
        value = Value::String(std::move(v));
        break;
      }
      case wire::ParamTag::kBool: {
        uint8_t v = 0;
        ok = r.GetU8(&v);
        value = Value::Bool(v != 0);
        break;
      }
      default:
        ok = false;
        break;
    }
  }
  if (!ok || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed EXECUTE");
    conn->closing = true;
    return;
  }
  req.params.resize(parsed);
  auto it = conn->stmts.find(stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unknown statement " + std::to_string(stmt_id));
    return;
  }
  req.prepare = false;
  req.stmt = it->second.get();
  req.deadline_millis = deadline_ms > 0 ? static_cast<int64_t>(deadline_ms) : -1;
  Enqueue(conn);
}

void Server::Enqueue(Connection* conn) {
  conn->busy = true;
  std::lock_guard<std::mutex> lock(mu_);
  jobs_.push_back(conn);
}

void Server::RunPrepare(Connection* conn) {
  Request& req = conn->request;
  req.reply.clear();
  PlanCache::Lease lease = db_->plan_cache().Acquire(req.text);
  PreparedQuery* q = lease.get();
  if (!q->ok()) {
    wire::AppendErrorFrame(wire::ToWire(q->status()), q->error(), &req.reply);
    return;
  }
  wire::FrameWriter w(&req.reply);
  w.BeginFrame(wire::FrameType::kPrepared);
  w.PutU32(req.stmt_id);
  w.PutU32(static_cast<uint32_t>(q->num_params()));
  for (size_t i = 0; i < q->num_params(); ++i) w.PutStr16(q->param_name(i));
  w.PutU32(static_cast<uint32_t>(q->columns().size()));
  for (const ProjectColumn& col : q->columns()) {
    w.PutU8(static_cast<uint8_t>(col.type));
    w.PutStr16(col.name);
  }
  if (!w.EndFrame()) {
    wire::AppendErrorFrame(wire::WireStatus::kPlanError,
                           "a parameter or column name exceeds 65535 bytes", &req.reply);
    return;
  }
  // The job may touch the statement freely: its connection stays busy
  // (and thus alive, untouched by the loop) until the reply lands.
  req.stmt->lease = std::move(lease);
}

// Spools an execute's row batches as kRows frames, one chunk per frame.
// The execute is serial, so batches arrive one at a time.
struct Server::SpoolSink : RowConsumer {
  SpoolSink(Statement* s, PreparedQuery* q) : stmt(s), query(q) {}

  Statement* stmt;
  PreparedQuery* query;
  bool row_too_large = false;

  void OnBatch(const RowBatch& batch) override { Spool(batch, 0, batch.num_rows()); }

  // Rows [begin, end) as one frame, or, when that exceeds the frame
  // limit, each half on its own: chunk row counts stay exact.
  void Spool(const RowBatch& batch, uint32_t begin, uint32_t end) {
    if (row_too_large) return;
    SpoolChunk chunk;
    chunk.offset = stmt->spool.size();
    if (wire::AppendRowsFrame(batch, begin, end - begin, &stmt->spool)) {
      chunk.rows = end - begin;
      chunk.len = stmt->spool.size() - chunk.offset;
      stmt->chunks.push_back(chunk);
      return;
    }
    if (end - begin == 1) {
      row_too_large = true;  // no frame can carry it: stop the query
      query->Cancel();
      return;
    }
    const uint32_t mid = begin + (end - begin) / 2;
    Spool(batch, begin, mid);
    Spool(batch, mid, end);
  }
};

void Server::RunExecute(Connection* conn) {
  Request& req = conn->request;
  Statement* stmt = req.stmt;
  PreparedQuery* q = stmt->lease.get();
  QueryOutcome outcome;
  bool bound = true;
  for (const auto& [name, value] : req.params) {
    if (!q->Bind(name, value)) {
      outcome.status = QueryOutcome::Status::kBindError;
      outcome.error = q->bind_error();
      bound = false;
      break;
    }
  }
  if (bound) {
    stmt->spool.clear();
    stmt->chunks.clear();
    stmt->next_chunk = 0;
    q->set_deadline_millis(req.deadline_millis);
    conn->inflight.store(q, std::memory_order_release);
    SpoolSink sink(stmt, q);
    outcome = q->Execute(&sink);
    conn->inflight.store(nullptr, std::memory_order_release);
    if (sink.row_too_large) {
      outcome.status = QueryOutcome::Status::kExecError;
      outcome.error = "a result row exceeds the " + std::to_string(wire::kMaxFrameBytes) +
                      "-byte frame limit";
      stmt->spool.clear();
      stmt->chunks.clear();
    }
    stmt->count = outcome.count;
    stmt->seconds = outcome.seconds;
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  req.reply.clear();
  if (outcome.ok()) {
    stmt->AppendPage(req.max_rows, &req.reply);
  } else {
    wire::AppendErrorFrame(wire::ToWire(outcome.status), outcome.error, &req.reply);
  }
}

void Server::Statement::AppendPage(uint64_t max_rows, std::vector<uint8_t>* out) {
  uint64_t delivered = 0;
  while (next_chunk < chunks.size() && (max_rows == 0 || delivered < max_rows)) {
    const SpoolChunk& chunk = chunks[next_chunk];
    out->insert(out->end(), spool.begin() + static_cast<ptrdiff_t>(chunk.offset),
                spool.begin() + static_cast<ptrdiff_t>(chunk.offset + chunk.len));
    delivered += chunk.rows;
    ++next_chunk;
  }
  wire::AppendDoneFrame(next_chunk < chunks.size(), count, delivered, seconds, out);
}

void Server::HandleFetch(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t stmt_id = 0;
  uint64_t max_rows = 0;
  if (!r.GetU32(&stmt_id) || !r.GetU64(&max_rows) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed FETCH");
    conn->closing = true;
    return;
  }
  auto it = conn->stmts.find(stmt_id);
  if (it == conn->stmts.end()) {
    SendError(conn, wire::WireStatus::kProtocolError,
              "unknown statement " + std::to_string(stmt_id));
    return;
  }
  // Pure spool slicing: no execution, so the role holder runs it in
  // place.
  it->second->AppendPage(max_rows, &conn->out);
}

void Server::HandleCancel(Connection* conn) {
  if (!conn->busy) return;  // nothing in flight
  PreparedQuery* q = conn->inflight.load(std::memory_order_acquire);
  if (q != nullptr) q->Cancel();
}

void Server::HandleCloseStmt(Connection* conn, const wire::FrameView& frame) {
  wire::FrameReader r(frame.payload, frame.len);
  uint32_t stmt_id = 0;
  if (!r.GetU32(&stmt_id) || r.remaining() != 0) {
    SendError(conn, wire::WireStatus::kProtocolError, "malformed CLOSE");
    conn->closing = true;
    return;
  }
  auto it = conn->stmts.find(stmt_id);
  if (it != conn->stmts.end()) conn->stmts.erase(it);
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kClosed);
  w.PutU32(stmt_id);
  w.EndFrame();
}

void Server::HandleStats(Connection* conn) {
  wire::FrameWriter w(&conn->out);
  w.BeginFrame(wire::FrameType::kStatsResult);
  w.PutU64(db_->plan_cache().hits());
  w.PutU64(db_->plan_cache().misses());
  w.PutU64(db_->plan_cache().size());
  w.PutU64(queries());
  w.PutU64(0);  // batch_saved: the server does not batch; kept for the layout
  w.EndFrame();
}

void Server::DrainCompletions() {
  while (true) {
    Connection* conn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (completions_.empty()) return;
      conn = completions_.front();
      completions_.pop_front();
    }
    Deliver(conn);
  }
}

void Server::Deliver(Connection* conn) {
  const Request& req = conn->request;
  conn->out.insert(conn->out.end(), req.reply.begin(), req.reply.end());
  // A failed PREPARE left its statement without a plan.
  if (req.prepare && req.stmt->lease.get() == nullptr) conn->stmts.erase(req.stmt_id);
  FinishJob(conn);
  FlushOut(conn);
}

void Server::FinishJob(Connection* conn) {
  conn->busy = false;
  // Replay frames that arrived mid-job, in order, until another job
  // starts (busy again) or the connection is closing.
  while (!conn->busy && !conn->closing && !conn->deferred.empty()) {
    std::vector<uint8_t> bytes = std::move(conn->deferred.front());
    conn->deferred.pop_front();
    wire::FrameView view;
    view.type = static_cast<wire::FrameType>(bytes[4]);
    view.payload = bytes.data() + wire::kFrameHeaderBytes;
    view.len = bytes.size() - wire::kFrameHeaderBytes;
    if (!HandleFrame(conn, view)) conn->closing = true;
  }
  if (!conn->busy && !conn->closing) ParseFrames(conn);
}

void Server::SendError(Connection* conn, wire::WireStatus status, const std::string& message) {
  wire::AppendErrorFrame(status, message, &conn->out);
}

void Server::FlushOut(Connection* conn) {
  while (conn->out_start < conn->out.size()) {
    ssize_t n = send(conn->fd, conn->out.data() + conn->out_start,
                     conn->out.size() - conn->out_start, MSG_NOSIGNAL);
    if (n > 0) {
      conn->out_start += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;  // POLLOUT resumes
    conn->dead = true;
    return;
  }
  conn->out.clear();
  conn->out_start = 0;
}

void Server::DestroyConnection(Connection* conn) {
  if (conn->fd >= 0) close(conn->fd);
  delete conn;
}

}  // namespace aplus
