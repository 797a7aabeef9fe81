#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace aplus {

namespace {

void AppendParam(const std::string& name, const Value& value, wire::FrameWriter* w) {
  w->PutStr16(name);
  switch (value.type()) {
    case ValueType::kDouble:
      w->PutU8(static_cast<uint8_t>(wire::ParamTag::kDouble));
      w->PutF64(value.AsDouble());
      break;
    case ValueType::kString:
      w->PutU8(static_cast<uint8_t>(wire::ParamTag::kString));
      w->PutStr32(value.AsString());
      break;
    case ValueType::kBool:
      w->PutU8(static_cast<uint8_t>(wire::ParamTag::kBool));
      w->PutU8(value.AsBool() ? 1 : 0);
      break;
    default:  // int64 and categories travel as i64
      w->PutU8(static_cast<uint8_t>(wire::ParamTag::kInt64));
      w->PutI64(value.AsInt64());
      break;
  }
}

// A request frame over a wire limit is refused before anything is sent,
// so the connection stays usable.
std::string OversizedError(const char* frame) {
  return std::string(frame) + " frame exceeds a wire limit (" +
         std::to_string(wire::kMaxFrameBytes) + "-byte frames, 65535-byte names); " +
         "nothing was sent";
}

}  // namespace

Client::~Client() { Close(); }

void Client::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  in_.clear();
}

bool Client::Connect(const std::string& host, int port, std::string* error) {
  Close();
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad host address: " + host;
    Close();
    return false;
  }
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = "connect " + host + ":" + std::to_string(port) + ": " + std::strerror(errno);
    Close();
    return false;
  }
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kHello);
  w.PutU32(wire::kProtocolVersion);
  w.EndFrame();
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    *error = "HELLO send failed";
    Close();
    return false;
  }
  wire::FrameType type;
  std::vector<uint8_t> payload;
  if (!ReadFrame(&type, &payload, error)) {
    Close();
    return false;
  }
  if (type == wire::FrameType::kError) {
    wire::FrameReader r(payload.data(), payload.size());
    uint8_t status = 0;
    std::string message;
    r.GetU8(&status);
    r.GetStr32(&message);
    *error = "HELLO rejected: " + message;
    Close();
    return false;
  }
  if (type != wire::FrameType::kHelloOk) {
    *error = "unexpected HELLO response frame";
    Close();
    return false;
  }
  wire::FrameReader r(payload.data(), payload.size());
  uint32_t version = 0;
  uint32_t flags = 0;
  if (!r.GetU32(&version) || !r.GetU32(&flags)) {
    *error = "malformed HELLO_OK";
    Close();
    return false;
  }
  server_batching_ = (flags & 1u) != 0;
  return true;
}

bool Client::SendRaw(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t sent = 0;
  while (sent < len) {
    ssize_t n = send(fd_, p + sent, len - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool Client::ReadFrameRaw(std::vector<uint8_t>* frame, std::string* error) {
  while (true) {
    wire::FrameView view;
    size_t consumed = 0;
    std::string extract_error;
    if (wire::ExtractFrame(in_.data(), in_.size(), &consumed, &view, &extract_error)) {
      frame->assign(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(consumed));
      in_.erase(in_.begin(), in_.begin() + static_cast<ptrdiff_t>(consumed));
      return true;
    }
    if (!extract_error.empty()) {
      *error = extract_error;
      return false;
    }
    uint8_t buf[64 * 1024];
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      *error = n == 0 ? "connection closed by server" : std::strerror(errno);
      return false;
    }
    in_.insert(in_.end(), buf, buf + n);
  }
}

bool Client::ReadFrame(wire::FrameType* type, std::vector<uint8_t>* payload,
                       std::string* error) {
  std::vector<uint8_t> frame;
  if (!ReadFrameRaw(&frame, error)) return false;
  *type = static_cast<wire::FrameType>(frame[4]);
  payload->assign(frame.begin() + wire::kFrameHeaderBytes, frame.end());
  return true;
}

Client::PreparedInfo Client::Prepare(const std::string& text) {
  PreparedInfo info;
  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kPrepare);
  w.PutStr32(text);
  if (!w.EndFrame()) {
    info.status = wire::WireStatus::kProtocolError;
    info.error = OversizedError("PREPARE");
    return info;
  }
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    info.status = wire::WireStatus::kProtocolError;
    info.error = "send failed";
    return info;
  }
  wire::FrameType type;
  std::vector<uint8_t> payload;
  std::string error;
  if (!ReadFrame(&type, &payload, &error)) {
    info.status = wire::WireStatus::kProtocolError;
    info.error = error;
    return info;
  }
  wire::FrameReader r(payload.data(), payload.size());
  if (type == wire::FrameType::kError) {
    uint8_t status = 0;
    r.GetU8(&status);
    r.GetStr32(&info.error);
    info.status = static_cast<wire::WireStatus>(status);
    return info;
  }
  if (type != wire::FrameType::kPrepared) {
    info.status = wire::WireStatus::kProtocolError;
    info.error = "unexpected PREPARE response frame";
    return info;
  }
  uint32_t num_params = 0;
  r.GetU32(&info.stmt_id);
  r.GetU32(&num_params);
  for (uint32_t i = 0; i < num_params && r.ok(); ++i) {
    std::string name;
    r.GetStr16(&name);
    info.param_names.push_back(std::move(name));
  }
  uint32_t num_cols = 0;
  r.GetU32(&num_cols);
  for (uint32_t i = 0; i < num_cols && r.ok(); ++i) {
    uint8_t type_tag = 0;
    std::string name;
    r.GetU8(&type_tag);
    r.GetStr16(&name);
    info.columns.emplace_back(static_cast<ValueType>(type_tag), std::move(name));
  }
  if (!r.ok()) {
    info.status = wire::WireStatus::kProtocolError;
    info.error = "malformed PREPARED frame";
  }
  return info;
}

Client::Result Client::ReadResult() {
  Result result;
  while (true) {
    wire::FrameType type;
    std::vector<uint8_t> payload;
    std::string error;
    if (!ReadFrame(&type, &payload, &error)) {
      result.status = wire::WireStatus::kProtocolError;
      result.error = error;
      return result;
    }
    wire::FrameReader r(payload.data(), payload.size());
    switch (type) {
      case wire::FrameType::kRows: {
        std::string decode_error;
        if (!wire::DecodeRowsPayload(payload.data(), payload.size(), &result.rows,
                                     &decode_error)) {
          result.status = wire::WireStatus::kProtocolError;
          result.error = decode_error;
          return result;
        }
        break;
      }
      case wire::FrameType::kDone: {
        uint8_t status = 0;
        uint8_t more = 0;
        r.GetU8(&status);
        r.GetU8(&more);
        r.GetU64(&result.count);
        r.GetU64(&result.rows_delivered);
        r.GetF64(&result.seconds);
        result.status = static_cast<wire::WireStatus>(status);
        result.more = more != 0;
        if (!r.ok()) {
          result.status = wire::WireStatus::kProtocolError;
          result.error = "malformed DONE frame";
        }
        return result;
      }
      case wire::FrameType::kError: {
        uint8_t status = 0;
        r.GetU8(&status);
        r.GetStr32(&result.error);
        result.status = static_cast<wire::WireStatus>(status);
        return result;
      }
      default:
        result.status = wire::WireStatus::kProtocolError;
        result.error = "unexpected response frame";
        return result;
    }
  }
}

Client::Result Client::Execute(uint32_t stmt_id,
                               const std::vector<std::pair<std::string, Value>>& params,
                               uint32_t deadline_millis, uint64_t max_rows) {
  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kExecute);
  w.PutU32(stmt_id);
  w.PutU32(deadline_millis);
  w.PutU64(max_rows);
  w.PutU32(static_cast<uint32_t>(params.size()));
  for (const auto& param : params) AppendParam(param.first, param.second, &w);
  Result result;
  result.status = wire::WireStatus::kProtocolError;
  if (!w.EndFrame()) {
    result.error = OversizedError("EXECUTE");
    return result;
  }
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    result.error = "send failed";
    return result;
  }
  return ReadResult();
}

Client::Result Client::Fetch(uint32_t stmt_id, uint64_t max_rows) {
  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kFetch);
  w.PutU32(stmt_id);
  w.PutU64(max_rows);
  w.EndFrame();
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    Result result;
    result.status = wire::WireStatus::kProtocolError;
    result.error = "send failed";
    return result;
  }
  return ReadResult();
}

void Client::Cancel() {
  // Built into a local buffer: Cancel may run from a second thread while
  // Execute's thread owns send_scratch_.
  std::vector<uint8_t> frame;
  wire::FrameWriter w(&frame);
  w.BeginFrame(wire::FrameType::kCancel);
  w.EndFrame();
  SendRaw(frame.data(), frame.size());
}

bool Client::CloseStatement(uint32_t stmt_id, std::string* error) {
  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kClose);
  w.PutU32(stmt_id);
  w.EndFrame();
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    *error = "send failed";
    return false;
  }
  wire::FrameType type;
  std::vector<uint8_t> payload;
  if (!ReadFrame(&type, &payload, error)) return false;
  if (type != wire::FrameType::kClosed) {
    *error = "unexpected CLOSE response frame";
    return false;
  }
  return true;
}

Client::Stats Client::GetStats() {
  Stats stats;
  send_scratch_.clear();
  wire::FrameWriter w(&send_scratch_);
  w.BeginFrame(wire::FrameType::kStats);
  w.EndFrame();
  if (!SendRaw(send_scratch_.data(), send_scratch_.size())) {
    stats.error = "send failed";
    return stats;
  }
  wire::FrameType type;
  std::vector<uint8_t> payload;
  if (!ReadFrame(&type, &payload, &stats.error)) return stats;
  if (type != wire::FrameType::kStatsResult) {
    stats.error = "unexpected STATS response frame";
    return stats;
  }
  wire::FrameReader r(payload.data(), payload.size());
  r.GetU64(&stats.cache_hits);
  r.GetU64(&stats.cache_misses);
  r.GetU64(&stats.cache_entries);
  r.GetU64(&stats.queries);
  r.GetU64(&stats.batch_saved);
  stats.ok = r.ok();
  if (!stats.ok) stats.error = "malformed STATS_RESULT frame";
  return stats;
}

}  // namespace aplus
