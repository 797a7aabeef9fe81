#include "server/protocol.h"

namespace aplus {
namespace wire {

// The 1:1 numeric mapping WireStatus <-> QueryOutcome::Status relies on.
static_assert(static_cast<uint8_t>(WireStatus::kOverloaded) ==
                  static_cast<uint8_t>(QueryOutcome::Status::kOverloaded),
              "WireStatus must mirror QueryOutcome::Status values");
static_assert(static_cast<uint8_t>(WireStatus::kTimeout) ==
                  static_cast<uint8_t>(QueryOutcome::Status::kTimeout),
              "WireStatus must mirror QueryOutcome::Status values");

WireStatus ToWire(QueryOutcome::Status status) {
  return static_cast<WireStatus>(static_cast<uint8_t>(status));
}

QueryOutcome::Status FromWire(WireStatus status) {
  if (status == WireStatus::kProtocolError) return QueryOutcome::Status::kExecError;
  return static_cast<QueryOutcome::Status>(static_cast<uint8_t>(status));
}

const char* ToString(WireStatus status) {
  if (status == WireStatus::kProtocolError) return "PROTOCOL_ERROR";
  return aplus::ToString(FromWire(status));
}

// --- FrameWriter ---

void FrameWriter::BeginFrame(FrameType type) {
  frame_start_ = out_->size();
  fits_ = true;
  out_->insert(out_->end(), {0, 0, 0, 0});  // length, patched by EndFrame
  out_->push_back(static_cast<uint8_t>(type));
}

bool FrameWriter::EndFrame() {
  const size_t payload = out_->size() - frame_start_ - kFrameHeaderBytes;
  if (!fits_ || payload > kMaxFrameBytes) {
    out_->resize(frame_start_);
    return false;
  }
  uint32_t len = static_cast<uint32_t>(payload);
  std::memcpy(out_->data() + frame_start_, &len, sizeof(len));
  return true;
}

void FrameWriter::PutU16(uint16_t v) { PutBytes(&v, sizeof(v)); }
void FrameWriter::PutU32(uint32_t v) { PutBytes(&v, sizeof(v)); }
void FrameWriter::PutU64(uint64_t v) { PutBytes(&v, sizeof(v)); }
void FrameWriter::PutF64(double v) { PutBytes(&v, sizeof(v)); }

void FrameWriter::PutBytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  out_->insert(out_->end(), p, p + len);
}

void FrameWriter::PutStr16(const std::string& s) {
  if (s.size() > 0xFFFF) {
    fits_ = false;  // EndFrame drops the frame
    return;
  }
  PutU16(static_cast<uint16_t>(s.size()));
  PutBytes(s.data(), s.size());
}

void FrameWriter::PutStr32(const std::string& s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutBytes(s.data(), s.size());
}

// --- ExtractFrame / FrameReader ---

bool ExtractFrame(const uint8_t* data, size_t size, size_t* consumed, FrameView* view,
                  std::string* error) {
  *consumed = 0;
  if (size < kFrameHeaderBytes) return false;
  uint32_t len = 0;
  std::memcpy(&len, data, sizeof(len));
  if (len > kMaxFrameBytes) {
    *error = "frame length " + std::to_string(len) + " exceeds the " +
             std::to_string(kMaxFrameBytes) + "-byte limit";
    return false;
  }
  if (size < kFrameHeaderBytes + len) return false;  // incomplete: wait for more bytes
  view->type = static_cast<FrameType>(data[4]);
  view->payload = data + kFrameHeaderBytes;
  view->len = len;
  *consumed = kFrameHeaderBytes + len;
  return true;
}

bool FrameReader::Take(size_t n, const uint8_t** p) {
  if (!ok_ || len_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_ + pos_;
  pos_ += n;
  return true;
}

bool FrameReader::GetU8(uint8_t* v) {
  const uint8_t* p;
  if (!Take(1, &p)) return false;
  *v = *p;
  return true;
}

bool FrameReader::GetU16(uint16_t* v) {
  const uint8_t* p;
  if (!Take(sizeof(*v), &p)) return false;
  std::memcpy(v, p, sizeof(*v));
  return true;
}

bool FrameReader::GetU32(uint32_t* v) {
  const uint8_t* p;
  if (!Take(sizeof(*v), &p)) return false;
  std::memcpy(v, p, sizeof(*v));
  return true;
}

bool FrameReader::GetU64(uint64_t* v) {
  const uint8_t* p;
  if (!Take(sizeof(*v), &p)) return false;
  std::memcpy(v, p, sizeof(*v));
  return true;
}

bool FrameReader::GetI64(int64_t* v) {
  uint64_t u;
  if (!GetU64(&u)) return false;
  *v = static_cast<int64_t>(u);
  return true;
}

bool FrameReader::GetF64(double* v) {
  const uint8_t* p;
  if (!Take(sizeof(*v), &p)) return false;
  std::memcpy(v, p, sizeof(*v));
  return true;
}

bool FrameReader::GetStr16(std::string* s) {
  uint16_t len = 0;
  if (!GetU16(&len)) return false;
  const uint8_t* p;
  if (!Take(len, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), len);
  return true;
}

bool FrameReader::GetStr32(std::string* s) {
  uint32_t len = 0;
  if (!GetU32(&len)) return false;
  const uint8_t* p;
  if (!Take(len, &p)) return false;
  s->assign(reinterpret_cast<const char*>(p), len);
  return true;
}

// --- Composite frames ---

namespace {

// Storage class of a column type inside RowBatch (which payload vector
// carries the cells). Mirrors RowBatch::AppendNull.
enum class Storage { kInts, kDoubles, kStrings };

Storage StorageOf(ValueType type) {
  switch (type) {
    case ValueType::kDouble:
      return Storage::kDoubles;
    case ValueType::kString:
      return Storage::kStrings;
    default:
      return Storage::kInts;
  }
}

}  // namespace

bool AppendRowsFrame(const RowBatch& batch, uint32_t begin, uint32_t num_rows,
                     std::vector<uint8_t>* out) {
  // Gives up on an oversized frame as soon as it overflows, not after
  // copying every remaining cell.
  const size_t frame_end = out->size() + kFrameHeaderBytes + kMaxFrameBytes;
  FrameWriter w(out);
  w.BeginFrame(FrameType::kRows);
  const uint32_t num_cols = static_cast<uint32_t>(batch.num_columns());
  w.PutU32(num_rows);
  w.PutU32(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    const RowBatch::Column& col = batch.column(c);
    w.PutU8(static_cast<uint8_t>(col.type));
    uint8_t has_nulls = 0;
    for (uint32_t r = begin; r < begin + num_rows; ++r) has_nulls |= col.nulls[r];
    w.PutU8(has_nulls);
    if (has_nulls) w.PutBytes(col.nulls.data() + begin, num_rows);
    switch (StorageOf(col.type)) {
      case Storage::kInts:
        w.PutBytes(col.ints.data() + begin, static_cast<size_t>(num_rows) * sizeof(int64_t));
        break;
      case Storage::kDoubles:
        w.PutBytes(col.doubles.data() + begin, static_cast<size_t>(num_rows) * sizeof(double));
        break;
      case Storage::kStrings:
        // Dictionary pointers dereference here, at serialization time —
        // the bytes go on the wire, so the frame stays valid however
        // long the client holds it.
        for (uint32_t r = begin; r < begin + num_rows; ++r) {
          const std::string* s = col.strings[r];
          if (s == nullptr) {
            w.PutU32(0);
          } else {
            w.PutU32(static_cast<uint32_t>(s->size()));
            w.PutBytes(s->data(), s->size());
            if (out->size() > frame_end) break;
          }
        }
        break;
    }
    if (out->size() > frame_end) break;
  }
  return w.EndFrame();
}

void AppendErrorFrame(WireStatus status, const std::string& message,
                      std::vector<uint8_t>* out) {
  // u8 status + u32 length: the rest of the frame is the message, cut to
  // fit (a parse error may quote a text near the limit).
  constexpr size_t kMaxMessage = kMaxFrameBytes - 5;
  FrameWriter w(out);
  w.BeginFrame(FrameType::kError);
  w.PutU8(static_cast<uint8_t>(status));
  w.PutStr32(message.size() <= kMaxMessage ? message : message.substr(0, kMaxMessage));
  w.EndFrame();
}

void AppendDoneFrame(bool more, uint64_t count, uint64_t rows, double seconds,
                     std::vector<uint8_t>* out) {
  FrameWriter w(out);
  w.BeginFrame(FrameType::kDone);
  w.PutU8(static_cast<uint8_t>(WireStatus::kOk));
  w.PutU8(more ? 1 : 0);
  w.PutU64(count);
  w.PutU64(rows);
  w.PutF64(seconds);
  w.EndFrame();
}

bool DecodeRowsPayload(const uint8_t* payload, size_t len, DecodedRows* out,
                       std::string* error) {
  FrameReader r(payload, len);
  uint32_t num_rows = 0;
  uint32_t num_cols = 0;
  if (!r.GetU32(&num_rows) || !r.GetU32(&num_cols)) {
    *error = "truncated ROWS header";
    return false;
  }
  if (out->col_types.empty()) {
    out->col_types.resize(num_cols, ValueType::kNull);
  } else if (out->col_types.size() != num_cols) {
    *error = "ROWS column count changed mid-result";
    return false;
  }
  const size_t first_new = out->rows.size();
  out->rows.resize(first_new + num_rows);
  for (size_t i = first_new; i < out->rows.size(); ++i) out->rows[i].resize(num_cols);
  for (uint32_t c = 0; c < num_cols; ++c) {
    uint8_t type_tag = 0;
    uint8_t has_nulls = 0;
    if (!r.GetU8(&type_tag) || !r.GetU8(&has_nulls)) {
      *error = "truncated ROWS column header";
      return false;
    }
    ValueType type = static_cast<ValueType>(type_tag);
    if (out->col_types[c] == ValueType::kNull) out->col_types[c] = type;
    std::vector<uint8_t> nulls(num_rows, 0);
    if (has_nulls) {
      for (uint32_t i = 0; i < num_rows; ++i) {
        if (!r.GetU8(&nulls[i])) {
          *error = "truncated ROWS null bitmap";
          return false;
        }
      }
    }
    for (uint32_t i = 0; i < num_rows; ++i) {
      Value v;
      switch (StorageOf(type)) {
        case Storage::kInts: {
          int64_t x = 0;
          if (!r.GetI64(&x)) {
            *error = "truncated ROWS int column";
            return false;
          }
          v = type == ValueType::kBool ? Value::Bool(x != 0)
              : type == ValueType::kCategory ? Value::Category(x)
                                             : Value::Int64(x);
          break;
        }
        case Storage::kDoubles: {
          double x = 0;
          if (!r.GetF64(&x)) {
            *error = "truncated ROWS double column";
            return false;
          }
          v = Value::Double(x);
          break;
        }
        case Storage::kStrings: {
          std::string s;
          if (!r.GetStr32(&s)) {
            *error = "truncated ROWS string column";
            return false;
          }
          v = Value::String(std::move(s));
          break;
        }
      }
      out->rows[first_new + i][c] = nulls[i] ? Value::Null() : std::move(v);
    }
  }
  return true;
}

}  // namespace wire
}  // namespace aplus
