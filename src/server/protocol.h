#ifndef APLUS_SERVER_PROTOCOL_H_
#define APLUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/session.h"
#include "query/row_sink.h"
#include "storage/value.h"

namespace aplus {
namespace wire {

// The aplusd wire protocol (docs/PROTOCOL.md): length-prefixed binary
// frames over a byte stream.
//
//   frame := u32 payload_len (LE) | u8 type | payload[payload_len]
//
// payload_len counts the bytes AFTER the type octet, so the full frame
// occupies 5 + payload_len bytes. All integers are little-endian;
// doubles are IEEE-754 bit patterns. Strings are a length prefix plus
// raw bytes (str16 = u16 length, str32 = u32 length), never
// NUL-terminated.
constexpr uint32_t kProtocolVersion = 1;
// Oversized-length backstop: a frame advertising more than this is a
// protocol violation (the peer is broken or hostile), not a large
// request — the connection is failed without buffering the payload.
constexpr uint32_t kMaxFrameBytes = 16u << 20;
// Bytes preceding the payload (u32 length + u8 type).
constexpr size_t kFrameHeaderBytes = 5;

enum class FrameType : uint8_t {
  // Client -> server.
  kHello = 0x01,    // u32 protocol_version
  kPrepare = 0x02,  // str32 query_text
  kExecute = 0x03,  // u32 stmt_id, u32 deadline_ms (0 = server default),
                    // u64 max_rows (0 = all), u32 num_params,
                    // { str16 name, u8 value_type, payload } per param
  kFetch = 0x04,    // u32 stmt_id, u64 max_rows (0 = rest of the spool)
  kCancel = 0x05,   // empty; stops the connection's in-flight execute
  kClose = 0x06,    // u32 stmt_id
  kStats = 0x07,    // empty

  // Server -> client.
  kHelloOk = 0x81,   // u32 protocol_version, u32 flags (always 0)
  kPrepared = 0x82,  // u32 stmt_id, u32 num_params, str16 name per param,
                     // u32 num_cols, { u8 value_type, str16 name } per col
  kRows = 0x83,      // columnar row batch; see AppendRowsFrame
  kDone = 0x84,      // u8 status (kOk), u8 more, u64 count, u64 rows, f64 seconds
  kError = 0x85,     // u8 status, str32 message
  kClosed = 0x86,    // u32 stmt_id
  kStatsResult = 0x87,  // u64 cache_hits, u64 cache_misses, u64 cache_entries,
                        // u64 queries, u64 batch_saved (always 0)
};

// Typed wire error codes. Values 0..9 map 1:1 onto QueryOutcome::Status
// (same numeric values, asserted in protocol.cc); kProtocolError is the
// wire-only addition for malformed/unexpected frames.
enum class WireStatus : uint8_t {
  kOk = 0,
  kParseError = 1,
  kPlanError = 2,
  kBindError = 3,
  kInvalidated = 4,
  kExecError = 5,
  kResourceExhausted = 6,
  kTimeout = 7,
  kCancelled = 8,
  kOverloaded = 9,
  kProtocolError = 100,
};

WireStatus ToWire(QueryOutcome::Status status);
// kProtocolError (no QueryOutcome analogue) maps to kExecError.
QueryOutcome::Status FromWire(WireStatus status);
const char* ToString(WireStatus status);

// Value payload tags of EXECUTE parameters (subset of ValueType; nulls
// are not bindable and categories bind as int64 or string).
enum class ParamTag : uint8_t {
  kInt64 = 1,   // i64
  kDouble = 2,  // f64
  kString = 3,  // str32
  kBool = 4,    // u8
};

// --- Encoding ---

// Appends frames to a caller-owned byte buffer (reused across frames:
// steady-state serialization allocates only on high-water-mark growth).
class FrameWriter {
 public:
  explicit FrameWriter(std::vector<uint8_t>* out) : out_(out) {}

  // Begin/End bracket one frame; End patches the length prefix. A frame
  // over a wire limit (a payload over kMaxFrameBytes, a str16 over 65535
  // bytes) is not sent: End removes it from the buffer and returns false.
  void BeginFrame(FrameType type);
  bool EndFrame();

  void PutU8(uint8_t v) { out_->push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutF64(double v);
  void PutBytes(const void* data, size_t len);
  void PutStr16(const std::string& s);
  void PutStr32(const std::string& s);

 private:
  std::vector<uint8_t>* out_;
  size_t frame_start_ = 0;  // offset of the length prefix
  bool fits_ = true;        // false once a field broke a wire limit
};

// One decoded frame header pointing into the receive buffer.
struct FrameView {
  FrameType type = FrameType::kHello;
  const uint8_t* payload = nullptr;
  size_t len = 0;
};

// Extracts the next complete frame from data[0..size). Returns true and
// sets *consumed/*view when one is complete; false with *consumed == 0
// when more bytes are needed; false with a non-empty *error on a
// protocol violation (oversized length). Never reads past `size`.
bool ExtractFrame(const uint8_t* data, size_t size, size_t* consumed, FrameView* view,
                  std::string* error);

// Bounds-checked cursor over one frame payload. Every getter returns
// false (and poisons the reader) on overrun, so malformed frames fail
// deterministically instead of reading garbage.
class FrameReader {
 public:
  FrameReader(const uint8_t* data, size_t len) : data_(data), len_(len) {}

  bool GetU8(uint8_t* v);
  bool GetU16(uint16_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetF64(double* v);
  bool GetStr16(std::string* s);
  bool GetStr32(std::string* s);

  bool ok() const { return ok_; }
  size_t remaining() const { return len_ - pos_; }

 private:
  bool Take(size_t n, const uint8_t** p);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// --- Composite frames ---

// Serializes rows [begin, begin + num_rows) of `batch` as one kRows frame:
//   u32 num_rows, u32 num_cols,
//   per column: u8 value_type, u8 has_nulls,
//               [num_rows null bytes when has_nulls],
//               payload (i64*n | f64*n | str32*n by storage class)
// Column-at-a-time appends into the reused buffer: no per-row heap
// allocation (string cells copy their dictionary bytes into `out`, which
// is amortized by the buffer's high-water mark like every other append).
// Returns false, leaving `out` as it was, when the frame would exceed
// kMaxFrameBytes; the caller splits the rows over several frames.
bool AppendRowsFrame(const RowBatch& batch, uint32_t begin, uint32_t num_rows,
                     std::vector<uint8_t>* out);

void AppendErrorFrame(WireStatus status, const std::string& message,
                      std::vector<uint8_t>* out);
void AppendDoneFrame(bool more, uint64_t count, uint64_t rows, double seconds,
                     std::vector<uint8_t>* out);

// --- Client-side decoding ---

// A decoded kRows payload, materialized into Values (client/test
// convenience — the server side never decodes row frames).
struct DecodedRows {
  std::vector<ValueType> col_types;
  std::vector<std::vector<Value>> rows;
};

// Appends the frame's rows to *out (col_types are set on first use and
// checked afterwards). Returns false on malformed payloads.
bool DecodeRowsPayload(const uint8_t* payload, size_t len, DecodedRows* out,
                       std::string* error);

}  // namespace wire
}  // namespace aplus

#endif  // APLUS_SERVER_PROTOCOL_H_
