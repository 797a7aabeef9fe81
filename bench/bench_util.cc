#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace aplus {

TablePrinter::TablePrinter(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void TablePrinter::AddRow(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void TablePrinter::Print() const {
  std::vector<size_t> widths(headers_.size(), 0);
  for (size_t i = 0; i < headers_.size(); ++i) widths[i] = headers_[i].size();
  for (const auto& row : rows_) {
    for (size_t i = 0; i < row.size() && i < widths.size(); ++i) {
      if (row[i].size() > widths[i]) widths[i] = row[i].size();
    }
  }
  auto print_row = [&widths](const std::vector<std::string>& cells) {
    std::printf("|");
    for (size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < cells.size() ? cells[i] : "";
      std::printf(" %-*s |", static_cast<int>(widths[i]), cell.c_str());
    }
    std::printf("\n");
  };
  print_row(headers_);
  std::printf("|");
  for (size_t width : widths) {
    for (size_t i = 0; i < width + 2; ++i) std::printf("-");
    std::printf("|");
  }
  std::printf("\n");
  for (const auto& row : rows_) print_row(row);
  std::fflush(stdout);
}

std::string TablePrinter::Seconds(double s) {
  char buf[32];
  if (s < 0.001) {
    std::snprintf(buf, sizeof(buf), "%.4fms", s * 1000.0);
  } else if (s < 10.0) {
    std::snprintf(buf, sizeof(buf), "%.3fs", s);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fs", s);
  }
  return buf;
}

std::string TablePrinter::Mb(size_t bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fMB", static_cast<double>(bytes) / (1024.0 * 1024.0));
  return buf;
}

std::string TablePrinter::Speedup(double base, double other) {
  char buf[32];
  if (other <= 0.0) return "-";
  std::snprintf(buf, sizeof(buf), "%.2fx", base / other);
  return buf;
}

std::string TablePrinter::Count(uint64_t n) {
  char buf[32];
  if (n >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.1fM", static_cast<double>(n) / 1e6);
  } else if (n >= 1000) {
    std::snprintf(buf, sizeof(buf), "%.1fK", static_cast<double>(n) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(n));
  }
  return buf;
}

void PrintBanner(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::fflush(stdout);
}

double ScaleFromEnv(double fallback) {
  const char* env = std::getenv("APLUS_SCALE");
  if (env == nullptr) return fallback;
  double scale = std::atof(env);
  if (scale <= 0.0) return fallback;
  return std::min(scale, 1.0);
}

uint64_t IntFromEnv(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  long long v = std::atoll(env);
  return v > 0 ? static_cast<uint64_t>(v) : fallback;
}

uint64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  unsigned long long kb = 0;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<uint64_t>(kb) * 1024;
}

}  // namespace aplus
