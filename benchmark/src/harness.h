#ifndef APLUS_BENCHMARK_HARNESS_H_
#define APLUS_BENCHMARK_HARNESS_H_

// Shared pieces of aplus_bench: clocks, the seeded request RNG, latency
// sample sets, the metric table, answer fingerprints and the span
// tracer. Nothing here reaches into the engine.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "query/row_sink.h"
#include "server/protocol.h"

namespace aplus {
namespace bench {

using Clock = std::chrono::steady_clock;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}
inline double SecondsSince(int64_t start_nanos) {
  return static_cast<double>(NowNanos() - start_nanos) * 1e-9;
}
// Sleeps until the steady-clock instant `nanos` (returns at once when it
// has passed).
void SleepUntil(int64_t nanos);

// splitmix64: the request streams and source samples derive from the
// workload seed through this, never from the engine's own RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return n == 0 ? 0 : Next() % n; }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// A set of measurements with nearest-rank percentiles. Failed requests
// are recorded as +infinity so they count as missing every limit.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Percentile(double p) const;  // p in [0, 100]; 0 when empty
  double Max() const;

 private:
  std::vector<double> values_;
};

// Median of a small vector (the repeated set-up timings).
double Median(std::vector<double> values);

// Pins the calling thread, and so every thread it starts afterwards, to
// one CPU (the last one it may run on). Returns that CPU, or -1 when the
// pin failed. The speed probe below measures the CPU it runs on, so the
// whole run stays where the probe runs.
int PinToOneCpu();

// Core speed. On a virtual machine whose host is shared, the core a
// thread runs on slows down by up to 1.5x for seconds at a time while
// other tenants load it, and request latency follows (correlation 0.9
// over half-second windows). The probe is a fixed burst of independent
// integer operations, no memory traffic, independent of the engine: its
// duration is kProbeNominalNanos on an unloaded core of the reference
// host (a 4-vCPU Xeon KVM guest) and grows as the core slows.
inline constexpr double kProbeNominalNanos = 14000.0;
int64_t ProbeNanos();

// The speed probe on a thread of its own, every 2 ms from construction
// to Stop(), for work that cannot pause to probe (a set-up, an open). It
// shares the pinned CPU with that work and takes ~0.7% of it.
class SpeedMonitor {
 public:
  SpeedMonitor();
  ~SpeedMonitor() { Stop(); }
  SpeedMonitor(const SpeedMonitor&) = delete;
  SpeedMonitor& operator=(const SpeedMonitor&) = delete;

  // Stops the probing; the median speed factor (kProbeNominalNanos over
  // the probe's duration) of the probes made.
  double Stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> speeds_;
  std::thread thread_;
};

// The requests of one timed phase, recorded by one thread. Every
// completion inside the phase is counted; latencies are kept as a
// uniform subsample of at most kMaxSamples (when the buffer fills, every
// other sample is dropped and the stride doubles), so the benchmark's own
// memory does not grow with throughput.
//
// The recording thread calls Probe() between requests; it runs the speed
// probe every kProbePeriodNanos (about 0.7% of the phase). The phase is
// cut into windows of kWindowNanos, and each window gets the speed factor
// kProbeNominalNanos / (median probe time of the window): below 1 while
// the core runs slow. Scaled latencies are the measured ones times the
// factor of their window, and the scaled throughput counts each window's
// duration times its factor: what the phase would have measured on an
// unloaded core.
class PhaseLog {
 public:
  static constexpr size_t kMaxSamples = 1 << 17;
  static constexpr int64_t kProbePeriodNanos = 2000000;
  static constexpr int64_t kWindowNanos = 500000000;

  PhaseLog(int64_t start_nanos, int64_t end_nanos);

  int64_t end_nanos() const { return end_; }

  // A request that completed at `end_nanos` after `latency_ms`; failed
  // requests pass +infinity and are not counted as completed.
  void Add(int64_t end_nanos, double latency_ms);
  // Runs the speed probe when the last one is kProbePeriodNanos old.
  void Probe();

  // Measured (scaled = false) or scaled latencies of the sampled requests
  // that completed at an instant `keep` accepts (every one when null).
  Samples Latencies(bool scaled,
                    const std::function<bool(int64_t end_nanos)>& keep = nullptr) const;
  // Completed (non-failed) requests per second of the phase, measured or
  // scaled.
  double Throughput(bool scaled) const;
  // Median speed factor over the probes of the phase.
  double MedianSpeed() const;

 private:
  struct Sample {
    int64_t end_nanos;
    double latency_ms;
  };
  struct ProbeRecord {
    int64_t at_nanos;
    int64_t took_nanos;
  };
  void Decimate();
  // Speed factor of every window; windows without a probe get the
  // phase's median.
  std::vector<double> WindowSpeeds() const;
  size_t WindowOf(int64_t nanos) const;

  int64_t start_;
  int64_t end_;
  uint64_t completed_ = 0;
  std::vector<Sample> samples_;
  uint64_t stride_ = 1;  // one request in `stride_` is sampled
  uint64_t seen_ = 0;
  std::vector<ProbeRecord> probes_;
  int64_t next_probe_ = 0;
};

// The named metrics of one run, printed as `name value unit` lines and
// written into the result JSON.
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // name.p50 and name.p99, plus name.max when `with_max`.
  void SetPercentiles(const std::string& name, const Samples& samples, const std::string& unit,
                      bool with_max = false);
  bool Has(const std::string& name) const { return values_.count(name) != 0; }
  double Get(const std::string& name) const;
  void Print() const;
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> values_;
};

// Fingerprint of one answer: match count, output row count and an
// order-sensitive hash of every output cell. The embedded consumer and
// the wire decoder produce the same value for the same answer.
struct Answer {
  uint64_t count = 0;
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const Answer& o) const {
    return count == o.count && rows == o.rows && hash == o.hash;
  }
  bool operator!=(const Answer& o) const { return !(*this == o); }
};

inline constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;

// RowConsumer folding delivered cells into a hash. Only for queries that
// deliver from the calling thread: staged ones (aggregation, ORDER BY, a
// bare COUNT(*)) or any query executed on one thread.
class FingerprintConsumer : public RowConsumer {
 public:
  void Reset() { hash_ = kHashSeed; }
  uint64_t hash() const { return hash_; }
  void OnBatch(const RowBatch& batch) override;

 private:
  uint64_t hash_ = kHashSeed;
};

uint64_t HashDecodedRows(const wire::DecodedRows& rows);

// ---------------------------------------------------------------------
// Tracing. While enabled, every Span records (name, start, end, parent,
// request id, thread) into a per-thread buffer; nothing is written until
// WriteChromeTrace at exit. While disabled a Span costs one relaxed load.
// ---------------------------------------------------------------------
namespace tracer {

bool Enabled();
void SetEnabled(bool on);
// True when a span opened now on this thread would be recorded (tracing
// is on and the enclosing request, if any, is sampled).
bool Recording();

// Every recorded span as Chrome trace-event JSON (chrome://tracing,
// Perfetto). False when the file cannot be written.
bool WriteChromeTrace(const std::string& path);

// Span durations in microseconds, by span name.
std::map<std::string, Samples> Durations();

// Self time (duration minus the part covered by child spans) summed per
// span name, with the span count.
struct SelfTime {
  double total_us = 0.0;
  uint64_t count = 0;
};
std::map<std::string, SelfTime> SelfTimes();

// Records a measured value that is not a span of ours, such as the
// execution time a server reports in its DONE frame. `name` must be a
// string literal.
void Sample(const char* name, double value);
std::map<std::string, Samples> Values();

}  // namespace tracer

// One span, from construction to destruction; its parent is the
// innermost open span of the same thread. `name` must be a string
// literal (stored by pointer).
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;  // slot in this thread's span buffer; -1 when off
};

// Marks one user request: spans and samples inside carry its id. A
// thread traces at most one request per millisecond and drops the spans
// and samples of the others, so a trace holds tens of thousands of
// requests whatever the request rate.
class RequestScope {
 public:
  explicit RequestScope(uint64_t request_id);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  bool entered_ = false;
  bool suppressed_ = false;
  uint64_t outer_request_ = 0;
};

}  // namespace bench
}  // namespace aplus

#endif  // APLUS_BENCHMARK_HARNESS_H_
