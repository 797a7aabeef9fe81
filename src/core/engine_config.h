#ifndef APLUS_CORE_ENGINE_CONFIG_H_
#define APLUS_CORE_ENGINE_CONFIG_H_

#include <cstdint>

#include "core/admission.h"
#include "storage/segment.h"

namespace aplus {

// The runtime settings of one Database, fixed when it is built. Each
// field maps onto one APLUS_* variable, and FromEnv is the one place in
// the engine that reads them. (APLUS_SIMD and APLUS_FAULT are
// process-wide and read once where they act, below this layer;
// APLUS_THREADS is read only by the tests.)
struct EngineConfig {
  // APLUS_MAX_CONCURRENT / APLUS_ADMISSION_QUEUE /
  // APLUS_ADMISSION_TIMEOUT_MS; max_concurrent 0 disables the gate.
  AdmissionConfig admission;
  // For an execute whose query set no value of its own:
  int64_t query_timeout_ms = 0;  // APLUS_QUERY_TIMEOUT_MS; 0: no deadline
  uint64_t mem_cap_bytes = 0;    // APLUS_MEM_CAP; 0: uncapped
  // APLUS_MEM_CAP_TOTAL: the process-wide ceiling over every query's
  // budget, installed by each execute; 0: none.
  uint64_t mem_cap_total_bytes = 0;
  // APLUS_SEGMENT_COMPRESS=auto|on|off: the layout SealToSegment writes.
  CompressMode segment_compress = CompressMode::kAuto;

  // The defaults above, overridden by each well-formed variable. An
  // integer counts only when the whole value is a non-negative decimal
  // within its field's range ("50ms", "-1" and " 5" keep the default).
  // Admission is read only when APLUS_MAX_CONCURRENT > 0; its queue then
  // defaults to max_concurrent and its wait to 100 ms. Any compress value
  // but "on" and "off" is auto.
  static EngineConfig FromEnv();
};

}  // namespace aplus

#endif  // APLUS_CORE_ENGINE_CONFIG_H_
