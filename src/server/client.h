#ifndef APLUS_SERVER_CLIENT_H_
#define APLUS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "storage/value.h"

namespace aplus {

// Minimal blocking wire-protocol client (aplus_loadgen, server tests,
// and a reference for third-party drivers — docs/PROTOCOL.md). One
// socket, one outstanding request; Cancel() is the only call that is
// safe from a second thread while Execute() blocks on the response.
class Client {
 public:
  struct Result {
    wire::WireStatus status = wire::WireStatus::kOk;
    std::string error;
    wire::DecodedRows rows;       // decoded kRows payloads, in order
    uint64_t count = 0;           // DONE.count (matches enumerated)
    uint64_t rows_delivered = 0;  // DONE.rows (rows in THIS response)
    double seconds = 0.0;
    bool more = false;  // FETCH can page further rows

    bool ok() const { return status == wire::WireStatus::kOk; }
  };

  struct PreparedInfo {
    wire::WireStatus status = wire::WireStatus::kOk;
    std::string error;
    uint32_t stmt_id = 0;
    std::vector<std::string> param_names;
    std::vector<std::pair<ValueType, std::string>> columns;

    bool ok() const { return status == wire::WireStatus::kOk; }
  };

  struct Stats {
    bool ok = false;
    std::string error;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_entries = 0;
    uint64_t queries = 0;
    uint64_t batch_saved = 0;  // always 0: the server does not batch
  };

  Client() = default;
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Connect + HELLO handshake. Returns false with *error set on refusal
  // or version mismatch.
  bool Connect(const std::string& host, int port, std::string* error);
  void Close();
  bool connected() const { return fd_ >= 0; }

  PreparedInfo Prepare(const std::string& text);
  // deadline_millis 0 = the server database's query_timeout_ms;
  // max_rows 0 = everything.
  Result Execute(uint32_t stmt_id, const std::vector<std::pair<std::string, Value>>& params,
                 uint32_t deadline_millis = 0, uint64_t max_rows = 0);
  Result Fetch(uint32_t stmt_id, uint64_t max_rows = 0);
  // Fire-and-forget: asks the server to cancel this connection's
  // in-flight execute. No response frame.
  void Cancel();
  bool CloseStatement(uint32_t stmt_id, std::string* error);
  Stats GetStats();

  // --- Raw access (protocol fuzz tests) ---

  bool SendRaw(const void* data, size_t len);
  // Reads the next complete frame (header + payload) into *frame.
  // Returns false on EOF/error/oversized.
  bool ReadFrameRaw(std::vector<uint8_t>* frame, std::string* error);

 private:
  bool ReadFrame(wire::FrameType* type, std::vector<uint8_t>* payload, std::string* error);
  // Reads response frames until DONE/ERROR, decoding kRows into
  // result.rows.
  Result ReadResult();

  int fd_ = -1;
  std::vector<uint8_t> in_;  // buffered unparsed bytes
  std::vector<uint8_t> send_scratch_;
};

}  // namespace aplus

#endif  // APLUS_SERVER_CLIENT_H_
