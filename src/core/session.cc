#include "core/session.h"

#include <algorithm>
#include <limits>

#include "core/admission.h"
#include "core/database.h"
#include "optimizer/plan_printer.h"
#include "util/ascii.h"
#include "util/logging.h"
#include "util/timer.h"

namespace aplus {

std::string NormalizeQueryText(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  bool pending_space = false;
  bool in_string = false;  // inside a '...' literal: whitespace is significant
  for (char c : text) {
    if (c == '\'') in_string = !in_string;
    if (!in_string && IsAsciiSpace(c)) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) out += ' ';
    pending_space = false;
    out += c;
  }
  return out;
}

int PreparedQuery::FindParam(const std::string& name) const {
  for (size_t i = 0; i < params_.size(); ++i) {
    if (params_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

bool PreparedQuery::current() const {
  // Validity tracks the store version only (DDL replaces index objects
  // the plan points into). Plain edge growth does NOT invalidate: probe
  // paths merge run + delta views, so a prepared plan keeps returning
  // correct rows across online ingest. Plan *quality* staleness from
  // large growth is a cache policy: see stale().
  return plan_ != nullptr && store_version_ == db_->index_store().version();
}

const std::string& PreparedQuery::plan_text() const {
  if (!plan_text_.empty() || plan_ == nullptr) return plan_text_;
  if (!current()) {
    // The descriptors may point into indexes DDL has since replaced.
    plan_text_ = "(plan invalidated: indexes changed since Prepare; re-prepare)\n";
    return plan_text_;
  }
  plan_text_ = RenderPlanTree(query_, db_->graph().catalog(), steps_, *plan_,
                              static_cast<ProjectSinkOp*>(plan_->sink(0))->ChainLines());
  return plan_text_;
}

bool PreparedQuery::stale() const {
  return plan_ == nullptr || db_->PlanStale(store_version_, num_edges_);
}

void PreparedQuery::RefreshSlots() {
  slots_.Clear();
  plan_->CollectParamSlots(&slots_);
  slots_pipelines_ = plan_->num_pipelines();
}

void PreparedQuery::ApplyParam(const ParamInfo& param, int index) {
  for (const ParamSlots::ValueSlot& slot : slots_.values) {
    if (slot.param == index) *slot.value = param.value;
  }
  // Sort-key bounds folded from $param range conjuncts (the descriptor's
  // BoundedRange binary search replaces the residual filter).
  for (const ParamSlots::RangeSlot& slot : slots_.ranges) {
    if (slot.param != index) continue;
    *slot.bound = slot.encode_double ? EncodeDoubleSortKey(param.value.AsDouble())
                                     : param.value.AsInt64();
  }
  if (param.pin_var >= 0) {
    vertex_id_t id = static_cast<vertex_id_t>(param.value.AsInt64());
    for (const ParamSlots::PinSlot& slot : slots_.pins) {
      if (slot.var == param.pin_var) *slot.pin = id;
    }
  }
}

bool PreparedQuery::Bind(const std::string& name, const Value& value) {
  int index = FindParam(name);
  if (index < 0) {
    bind_error_ = "unknown parameter $" + name;
    return false;
  }
  ParamInfo& param = params_[index];
  if (value.is_null()) {
    bind_error_ = "cannot bind null to parameter $" + name;
    return false;
  }
  if (value.type() == ValueType::kDouble && value.AsDouble() != value.AsDouble()) {
    // NaN never satisfies a comparison; accepting it would also corrupt
    // folded sort-key range bounds (EncodeDoubleSortKey(NaN) encodes
    // above every finite value).
    bind_error_ = "cannot bind NaN to parameter $" + name;
    return false;
  }
  Value coerced = value;
  bool type_ok = false;
  switch (param.expected) {
    case ValueType::kInt64:
      type_ok = value.type() == ValueType::kInt64;
      break;
    case ValueType::kDouble:
      if (value.type() == ValueType::kInt64) {
        coerced = Value::Double(static_cast<double>(value.AsInt64()));
        type_ok = true;
      } else {
        type_ok = value.type() == ValueType::kDouble;
      }
      break;
    case ValueType::kString:
      type_ok = value.type() == ValueType::kString;
      break;
    case ValueType::kBool:
      type_ok = value.type() == ValueType::kBool;
      break;
    case ValueType::kCategory: {
      const Catalog& catalog = db_->graph().catalog();
      if (value.type() == ValueType::kString) {
        // Category parameters accept the value's registered name.
        category_t cat = catalog.FindCategoryValue(param.key, value.AsString());
        if (cat == kInvalidCategory) {
          bind_error_ = "unknown category value '" + value.AsString() + "' for parameter $" +
                        name;
          return false;
        }
        coerced = Value::Category(cat);
        type_ok = true;
      } else if (value.type() == ValueType::kInt64 || value.type() == ValueType::kCategory) {
        int64_t code = value.AsInt64();
        if (code < 0 ||
            code >= static_cast<int64_t>(catalog.property(param.key).domain_size)) {
          bind_error_ = "category code out of domain for parameter $" + name;
          return false;
        }
        coerced = Value::Category(code);
        type_ok = true;
      }
      break;
    }
    case ValueType::kNull:
      break;
  }
  if (!type_ok) {
    bind_error_ = std::string("type mismatch binding parameter $") + name + ": expected " +
                  aplus::ToString(param.expected) + ", got " + aplus::ToString(value.type());
    return false;
  }
  if (param.pin_var >= 0) {
    // A pin becomes a raw scan bound / list probe target, so the id must
    // be a real vertex — client input never reaches an unchecked index.
    int64_t id = coerced.AsInt64();
    if (id < 0 || id >= static_cast<int64_t>(db_->graph().num_vertices())) {
      bind_error_ = "vertex id out of range for parameter $" + name;
      return false;
    }
  }
  param.value = std::move(coerced);
  param.bound = true;
  if (plan_ == nullptr) return true;  // errored prepare: nothing to patch
  if (plan_->num_pipelines() != slots_pipelines_) {
    // A parallel Execute added worker replicas since the last
    // collection: re-collect and re-apply every bound parameter so the
    // replicas see this (and any future) bind.
    RefreshSlots();
    for (size_t i = 0; i < params_.size(); ++i) {
      if (params_[i].bound) ApplyParam(params_[i], static_cast<int>(i));
    }
  } else {
    ApplyParam(param, index);
  }
  return true;
}

void PreparedQuery::ClearBindings() {
  for (ParamInfo& param : params_) {
    param.bound = false;
    param.value = Value();
  }
  bind_error_.clear();
}

void PreparedQuery::ResetTo(const PreparedQuery& master) {
  ClearBindings();
  timeout_millis_ = master.timeout_millis_;
  mem_cap_bytes_ = master.mem_cap_bytes_;
  controls_.token.Reset();
  controls_.budget.Reset(0);
}

QueryOutcome PreparedQuery::Execute(RowConsumer* consumer, int num_threads) {
  QueryOutcome out;
  if (!ok()) {
    out.status = status_;
    out.error = error_;
    return out;
  }
  if (!current()) {
    out.status = QueryOutcome::Status::kInvalidated;
    out.error = "prepared query is stale (indexes or graph changed since Prepare); re-prepare";
    return out;
  }
  for (const ParamInfo& param : params_) {
    if (!param.bound) {
      out.status = QueryOutcome::Status::kBindError;
      out.error = "unbound parameter $" + param.name;
      return out;
    }
  }
  // Admission gate: when configured (APLUS_MAX_CONCURRENT), concurrent
  // Execute calls beyond the slot count wait in a bounded FIFO queue; a
  // full queue or a queue timeout fails fast with kOverloaded. The RAII
  // slot releases when this frame returns, success or failure.
  AdmissionSlot admission_slot(&db_->admission());
  if (!admission_slot.admitted()) {
    out.status = QueryOutcome::Status::kOverloaded;
    out.error = admission_slot.result() == AdmissionController::Result::kTimedOut
                    ? "admission queue timed out waiting for an execute slot "
                      "(APLUS_MAX_CONCURRENT)"
                    : "execute slots and admission queue full (APLUS_MAX_CONCURRENT)";
    return out;
  }
  // Outside concurrent ingest, queries require clean indexes (the
  // pre-serving Run invariant): deletions buffer page updates without
  // bumping the store version, so `current()` alone cannot catch them;
  // flushing mutates page internals in place and never invalidates plan
  // pointers (index objects are only replaced by DDL, which does bump
  // versions). During concurrent ingest the probe paths merge deltas
  // themselves and flushing belongs to the merger.
  if (!db_->concurrent_ingest_active() && db_->index_store().HasPendingUpdates()) {
    db_->index_store().FlushAll();
  }
  controls_.consumer = consumer;
  int64_t budget = 0;
  if (row_budget()) {
    constexpr uint64_t kMaxBudget =
        static_cast<uint64_t>(std::numeric_limits<int64_t>::max());
    budget = static_cast<int64_t>(limit_ < kMaxBudget ? limit_ : kMaxBudget);
  }
  controls_.rows_remaining.store(budget, std::memory_order_relaxed);
  controls_.rows_emitted = 0;
  // Stop token: clear last execution's state, then arm the deadline. A
  // Cancel() issued while no execute was running targets this one
  // (session.h contract), so it survives the reset.
  const bool pre_cancelled = controls_.token.reason() == StopReason::kCancelled;
  controls_.token.Reset();
  if (pre_cancelled) controls_.token.Cancel();
  const EngineConfig& config = db_->config();
  const int64_t timeout_ms = timeout_millis_ >= 0 ? timeout_millis_ : config.query_timeout_ms;
  if (timeout_ms > 0) controls_.token.ArmDeadlineMillis(timeout_ms);
  // Memory budget: explicit set_mem_cap_bytes wins, then the config's
  // APLUS_MEM_CAP. The source name is kept for the kResourceExhausted
  // error message, which names the process ceiling instead when that
  // refused the charge.
  const bool explicit_cap = mem_cap_bytes_ >= 0;
  const uint64_t mem_cap =
      explicit_cap ? static_cast<uint64_t>(mem_cap_bytes_) : config.mem_cap_bytes;
  const char* mem_cap_source = explicit_cap ? "set_mem_cap_bytes" : "APLUS_MEM_CAP";
  controls_.budget.Reset(mem_cap, config.mem_cap_total_bytes);
  for (int i = 0; i < plan_->num_pipelines(); ++i) {
    static_cast<ProjectSinkOp*>(plan_->sink(i))->ResetBatch();
  }
  // Timed end-to-end: a staged query does real work (partial merge, the
  // sort, the Finish emission) after the plan returns, and the caller
  // waits for all of it.
  WallTimer timer;
  // The one mapping of a stop (`out.status` not ok) to its error text,
  // after the pipeline and after the Finish cascade (`emitting`). It
  // consumes the stop reason: a cancel that fired during this execute
  // must not bleed into the next one (a Cancel racing this reset may
  // land on either execution; see util/deadline.h).
  auto stopped = [&](bool emitting) {
    const char* during = emitting ? ", during result emission" : "";
    if (out.status == QueryOutcome::Status::kResourceExhausted) {
      const bool ceiling =
          controls_.budget.refused_by() == MemoryBudget::Limit::kProcessCeiling;
      out.error = "memory budget exceeded (" +
                  std::string(ceiling ? "APLUS_MEM_CAP_TOTAL" : mem_cap_source) + "=" +
                  std::to_string(ceiling ? config.mem_cap_total_bytes : mem_cap) + " bytes" +
                  during + ")";
    } else if (out.status == QueryOutcome::Status::kTimeout) {
      out.error = "query deadline exceeded (" + std::to_string(timeout_ms) + " ms" + during + ")";
    } else {
      out.error = emitting ? "query cancelled (during result emission)" : "query cancelled";
    }
    controls_.consumer = nullptr;
    out.seconds = timer.ElapsedSeconds();
    controls_.token.Reset();
    return std::move(out);
  };
  out = plan_->Execute(num_threads);  // the count and the stop status
  // Partial batches drain on the calling thread once the workers joined
  // (into each pipeline's own stage chain for staged queries).
  for (int i = 0; i < plan_->num_pipelines(); ++i) {
    static_cast<ProjectSinkOp*>(plan_->sink(i))->Flush();
  }
  // A stopped pipeline reports partial-progress counters. Staged partial
  // tables are incomplete, so no merge, no Finish, no rows: a clean error
  // instead of silently wrong aggregates; stage-less projections have
  // already streamed a partial row prefix to the consumer.
  if (!out.ok()) {
    out.rows = (!has_stages_ && !count_star_only_ && !columns_.empty()) ? out.count : 0;
    return stopped(false);
  }
  if (has_stages_) {
    // Parallel partial-merge: fold every worker chain into pipeline 0 —
    // stages with an order-free fold (grouped aggregation) hash-partition
    // the k worker tables across the pool — then run the Finish cascade
    // there; the final rows stream to the consumer from this thread only.
    auto* primary = static_cast<ProjectSinkOp*>(plan_->sink(0));
    worker_sinks_.clear();
    for (int i = 1; i < plan_->num_pipelines(); ++i) {
      worker_sinks_.push_back(static_cast<ProjectSinkOp*>(plan_->sink(i)));
    }
    primary->MergeStages(worker_sinks_.data(), static_cast<int>(worker_sinks_.size()),
                         num_threads);
    primary->FinishStages();
    out.rows = controls_.rows_emitted;
    // The deadline, a cancel or a refused charge can land mid-cascade:
    // the sort / group emission polls the token and charges the budget
    // too. The delivered prefix is incomplete.
    out.status = StatusOf(controls_.token.reason());
    if (!out.ok()) return stopped(true);
  } else if (count_star_only_) {
    // COUNT(*) pushdown: the counting sink already produced the answer;
    // synthesize the single output row (LIMIT 0 suppresses it).
    if (has_limit_ && limit_ == 0) {
      out.rows = 0;
    } else {
      count_row_.Clear();
      count_row_.AppendInt(0, static_cast<int64_t>(out.count));
      count_row_.AdvanceRow();
      if (consumer != nullptr) consumer->OnBatch(count_row_);
      out.rows = 1;
    }
  } else {
    out.rows = columns_.empty() ? 0 : out.count;
  }
  controls_.consumer = nullptr;
  out.seconds = timer.ElapsedSeconds();
  return out;
}

PreparedQuery* Session::Prepare(const std::string& text) {
  std::string key = NormalizeQueryText(text);
  ++tick_;
  auto it = statements_.find(key);
  if (it != statements_.end()) {
    if (!it->second.lease->stale()) {
      ++cache_hits_;
      it->second.last_used = tick_;
      return it->second.lease.get();
    }
    statements_.erase(it);  // stale: the store moved on, or the graph outgrew the plan
  }
  PlanCache::Lease lease = db_->plan_cache().Acquire(text);
  if (lease.hit()) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
  }
  PreparedQuery* query = lease.get();
  if (!query->ok()) {
    last_failed_ = std::move(lease);
    return query;
  }
  if (statements_.size() >= kMaxCachedQueries) {
    statements_.erase(std::min_element(
        statements_.begin(), statements_.end(),
        [](const auto& a, const auto& b) { return a.second.last_used < b.second.last_used; }));
  }
  statements_.emplace(std::move(key), Statement{std::move(lease), tick_});
  return query;
}

QueryOutcome Session::Execute(const std::string& text, RowConsumer* consumer,
                              int num_threads) {
  return Prepare(text)->Execute(consumer, num_threads);
}

}  // namespace aplus
