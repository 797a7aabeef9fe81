#ifndef APLUS_BENCH_BENCH_UTIL_H_
#define APLUS_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace aplus {

// Plain-text table printer used by every bench binary so the output
// mirrors the paper's tables row for row.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  static std::string Seconds(double s);
  static std::string Mb(size_t bytes);
  static std::string Speedup(double base, double other);
  static std::string Count(uint64_t n);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

// Prints a "=== title ===" banner.
void PrintBanner(const std::string& title);

// Reads the APLUS_SCALE environment variable (default `fallback`, clamped
// to (0, 1]), so the full table harness stays laptop-sized by default but
// can approach paper scale.
double ScaleFromEnv(double fallback);

// Reads a positive integer from the environment, falling back when the
// variable is unset or unparsable. Benches use this for smoke-path knobs
// (iteration counts, sub-workload sizes).
uint64_t IntFromEnv(const char* name, uint64_t fallback);

// Peak resident set size of this process in bytes (the VmHWM line of
// /proc/self/status); 0 where procfs is unavailable. Benches report it
// in their APLUS_BENCH_JSON payloads so memory regressions show up on
// the same trajectory as runtime ones.
uint64_t PeakRssBytes();

}  // namespace aplus

#endif  // APLUS_BENCH_BENCH_UTIL_H_
