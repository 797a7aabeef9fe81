#include "harness.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

namespace aplus {
namespace bench {

void SleepUntil(int64_t nanos) {
  int64_t now = NowNanos();
  if (nanos > now) std::this_thread::sleep_for(std::chrono::nanoseconds(nanos - now));
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> copy = values_;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(copy.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, copy.size() - 1);
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(idx), copy.end());
  return copy[idx];
}

double Samples::Max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) last = c;
  }
  if (last < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? last : -1;
}

namespace {
// Keeps the probe's result observable so the compiler cannot drop it.
std::atomic<uint64_t> g_probe_sink{0};
}  // namespace

int64_t ProbeNanos() {
  const int64_t start = NowNanos();
  uint64_t a0 = g_probe_sink.load(std::memory_order_relaxed) | 1;
  uint64_t a1 = 2, a2 = 3, a3 = 4, a4 = 5, a5 = 6, a6 = 7, a7 = 8;
  for (uint64_t k = 0; k < 10000; ++k) {
    a0 = a0 * 3 + k;
    a1 = a1 * 5 + k;
    a2 = a2 * 7 + k;
    a3 = a3 * 9 + k;
    a4 ^= a4 >> 3;
    a5 ^= a5 << 1;
    a6 += a6 >> 2;
    a7 -= a7 << 3;
  }
  g_probe_sink.store(a0 ^ a1 ^ a2 ^ a3 ^ a4 ^ a5 ^ a6 ^ a7, std::memory_order_relaxed);
  return NowNanos() - start;
}

SpeedMonitor::SpeedMonitor()
    : thread_([this] {
        for (;;) {  // at least one probe, however short the work
          speeds_.push_back(kProbeNominalNanos / static_cast<double>(ProbeNanos()));
          if (stop_.load(std::memory_order_relaxed)) return;
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      }) {}

double SpeedMonitor::Stop() {
  if (thread_.joinable()) {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  return Median(speeds_);
}

PhaseLog::PhaseLog(int64_t start_nanos, int64_t end_nanos) : start_(start_nanos), end_(end_nanos) {
  samples_.reserve(kMaxSamples);
}

void PhaseLog::Add(int64_t end_nanos, double latency_ms) {
  if (end_nanos < start_ || end_nanos >= end_) return;  // outside the phase
  if (std::isfinite(latency_ms)) completed_++;
  if (seen_++ % stride_ != 0) return;
  samples_.push_back({end_nanos, latency_ms});
  if (samples_.size() >= kMaxSamples) Decimate();
}

void PhaseLog::Probe() {
  const int64_t now = NowNanos();
  if (now < next_probe_) return;
  const int64_t took = ProbeNanos();
  if (now >= start_ && now < end_) probes_.push_back({now, took});
  next_probe_ = now + took + kProbePeriodNanos;
}

void PhaseLog::Decimate() {
  size_t kept = 0;
  for (size_t i = 0; i < samples_.size(); i += 2) samples_[kept++] = samples_[i];
  samples_.resize(kept);
  stride_ *= 2;
}

size_t PhaseLog::WindowOf(int64_t nanos) const {
  return static_cast<size_t>(std::max<int64_t>(nanos - start_, 0) / kWindowNanos);
}

double PhaseLog::MedianSpeed() const {
  std::vector<double> speeds;
  for (const ProbeRecord& p : probes_) {
    speeds.push_back(kProbeNominalNanos / static_cast<double>(p.took_nanos));
  }
  return speeds.empty() ? 1.0 : Median(std::move(speeds));
}

std::vector<double> PhaseLog::WindowSpeeds() const {
  std::vector<std::vector<double>> per_window(WindowOf(end_ - 1) + 1);
  for (const ProbeRecord& p : probes_) {
    per_window[WindowOf(p.at_nanos)].push_back(kProbeNominalNanos /
                                               static_cast<double>(p.took_nanos));
  }
  const double fallback = MedianSpeed();
  std::vector<double> speeds;
  for (std::vector<double>& w : per_window) speeds.push_back(w.empty() ? fallback : Median(w));
  return speeds;
}

Samples PhaseLog::Latencies(bool scaled,
                            const std::function<bool(int64_t end_nanos)>& keep) const {
  const std::vector<double> speeds = scaled ? WindowSpeeds() : std::vector<double>();
  Samples out;
  for (const Sample& r : samples_) {
    if (keep && !keep(r.end_nanos)) continue;
    out.Add(scaled ? r.latency_ms * speeds[WindowOf(r.end_nanos)] : r.latency_ms);
  }
  return out;
}

double PhaseLog::Throughput(bool scaled) const {
  double seconds = static_cast<double>(end_ - start_) * 1e-9;
  if (scaled) {
    const std::vector<double> speeds = WindowSpeeds();
    seconds = 0.0;
    for (size_t w = 0; w < speeds.size(); ++w) {
      int64_t from = start_ + static_cast<int64_t>(w) * kWindowNanos;
      int64_t to = std::min(end_, from + kWindowNanos);
      seconds += static_cast<double>(to - from) * 1e-9 * speeds[w];
    }
  }
  return static_cast<double>(completed_) / seconds;
}

void MetricTable::Set(const std::string& name, double value, const std::string& unit) {
  values_[name] = Entry{value, unit};
}

void MetricTable::SetPercentiles(const std::string& name, const Samples& samples,
                                 const std::string& unit, bool with_max) {
  Set(name + ".p50", samples.Percentile(50), unit);
  Set(name + ".p99", samples.Percentile(99), unit);
  if (with_max) Set(name + ".max", samples.Max(), unit);
}

double MetricTable::Get(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second.value;
}

void MetricTable::Print() const {
  for (const auto& [name, entry] : values_) {
    std::printf("%s %.9g %s\n", name.c_str(), entry.value, entry.unit.c_str());
  }
}

namespace {

// JSON has no infinity: a metric made infinite by failed requests is
// written as a huge finite number, which still fails every bound.
std::string JsonNumber(double v) {
  if (std::isnan(v)) return "null";
  if (std::isinf(v)) v = v > 0 ? 1e300 : -1e300;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

std::string MetricTable::ToJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : values_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"value\": " + JsonNumber(entry.value) + ", \"unit\": \"" +
           entry.unit + "\"}";
  }
  out += "\n  }";
  return out;
}

namespace {

inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h * 0x100000001b3ULL;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = kHashSeed;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

constexpr uint64_t kNullCell = 0x6e756c6c6e756c6cULL;

}  // namespace

void FingerprintConsumer::OnBatch(const RowBatch& batch) {
  for (uint32_t r = 0; r < batch.num_rows(); ++r) {
    for (size_t c = 0; c < batch.num_columns(); ++c) {
      const RowBatch::Column& col = batch.column(c);
      uint64_t cell = kNullCell;
      if (!col.nulls[r]) {
        switch (col.type) {
          case ValueType::kDouble:
            cell = DoubleBits(col.doubles[r]);
            break;
          case ValueType::kString:
            cell = HashString(*col.strings[r]);
            break;
          default:
            cell = static_cast<uint64_t>(col.ints[r]);
        }
      }
      hash_ = Mix(hash_, cell);
    }
  }
}

uint64_t HashDecodedRows(const wire::DecodedRows& rows) {
  uint64_t h = kHashSeed;
  for (const std::vector<Value>& row : rows.rows) {
    for (const Value& v : row) {
      uint64_t cell = kNullCell;
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kDouble:
          cell = DoubleBits(v.AsDouble());
          break;
        case ValueType::kString:
          cell = HashString(v.AsString());
          break;
        default:
          cell = static_cast<uint64_t>(v.AsInt64());
      }
      h = Mix(h, cell);
    }
  }
  return h;
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

namespace {

struct SpanRecord {
  const char* name;
  int64_t start;
  int64_t end;
  int64_t parent;  // index in the same thread's buffer, -1 for a root
  uint64_t request;
};

struct ValueRecord {
  const char* name;
  double value;
};

// One per thread that ever recorded; owned by the registry so spans of
// finished threads survive until the trace is written.
struct ThreadBuffer {
  uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<int64_t> open;  // stack of open span indexes
  std::vector<ValueRecord> values;
  int suppressed = 0;        // depth of enclosing untraced RequestScopes
  uint64_t request = 0;      // id of the enclosing traced RequestScope
  int64_t last_traced = 0;   // start of this thread's last traced request
};

// A thread traces at most one request per this interval.
constexpr int64_t kTraceGapNanos = 1000000;

std::atomic<bool> g_enabled{false};
std::mutex g_registry_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;  // guarded by g_registry_mu

ThreadBuffer* LocalBuffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_registry.back().get();
    buffer->tid = static_cast<uint32_t>(g_registry.size());
  }
  return buffer;
}

}  // namespace

namespace tracer {

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool Recording() { return Enabled() && LocalBuffer()->suppressed == 0; }

void Sample(const char* name, double value) {
  if (!Enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer->suppressed == 0) buffer->values.push_back({name, value});
}

// The readers below run after every recording thread has been joined.
// A span still open (end < start) is skipped.
std::map<std::string, Samples> Durations() {
  std::map<std::string, Samples> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    for (const SpanRecord& s : buffer->spans) {
      if (s.end >= s.start) out[s.name].Add(static_cast<double>(s.end - s.start) * 1e-3);
    }
  }
  return out;
}

std::map<std::string, Samples> Values() {
  std::map<std::string, Samples> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    for (const ValueRecord& v : buffer->values) out[v.name].Add(v.value);
  }
  return out;
}

std::map<std::string, SelfTime> SelfTimes() {
  std::map<std::string, SelfTime> out;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const auto& buffer : g_registry) {
    const std::vector<SpanRecord>& spans = buffer->spans;
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const SpanRecord& s : spans) {
      if (s.parent >= 0 && s.end >= s.start) {
        child_ns[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].end < spans[i].start) continue;
      SelfTime& t = out[spans[i].name];
      t.total_us += static_cast<double>(spans[i].end - spans[i].start - child_ns[i]) * 1e-3;
      t.count++;
    }
  }
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mu);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& buffer : g_registry) {
    for (const SpanRecord& s : buffer->spans) origin = std::min(origin, s.start);
  }
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
  bool first = true;
  for (const auto& buffer : g_registry) {
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const SpanRecord& s = buffer->spans[i];
      if (s.end < s.start) continue;
      uint64_t id = (static_cast<uint64_t>(buffer->tid) << 32) | i;
      uint64_t parent =
          s.parent < 0 ? 0 : (static_cast<uint64_t>(buffer->tid) << 32) | static_cast<uint64_t>(s.parent);
      std::fprintf(f,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %" PRIu64
                   ", \"parent\": %" PRIu64 ", \"request\": %" PRIu64 "}}",
                   first ? "" : ",", s.name, buffer->tid,
                   static_cast<double>(s.start - origin) * 1e-3,
                   static_cast<double>(s.end - s.start) * 1e-3, id, parent, s.request);
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace tracer

Span::Span(const char* name) {
  if (!tracer::Enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  if (buffer->suppressed > 0) return;
  int64_t parent = buffer->open.empty() ? -1 : buffer->open.back();
  index_ = static_cast<int64_t>(buffer->spans.size());
  buffer->spans.push_back({name, NowNanos(), -1, parent, buffer->request});
  buffer->open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer* buffer = LocalBuffer();
  buffer->spans[static_cast<size_t>(index_)].end = NowNanos();
  buffer->open.pop_back();
}

RequestScope::RequestScope(uint64_t request_id) {
  if (!tracer::Enabled()) return;
  ThreadBuffer* buffer = LocalBuffer();
  entered_ = true;
  outer_request_ = buffer->request;
  int64_t now = NowNanos();
  if (buffer->suppressed == 0 && now - buffer->last_traced >= kTraceGapNanos) {
    buffer->last_traced = now;
    buffer->request = request_id;
  } else {
    buffer->suppressed++;
    suppressed_ = true;
  }
}

RequestScope::~RequestScope() {
  if (!entered_) return;
  ThreadBuffer* buffer = LocalBuffer();
  if (suppressed_) buffer->suppressed--;
  buffer->request = outer_request_;
}

}  // namespace bench
}  // namespace aplus
