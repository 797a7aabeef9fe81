#include "query/plan.h"

#include "query/row_sink.h"
#include "util/epoch.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace aplus {

Plan::Plan(std::vector<std::unique_ptr<Operator>> ops, int num_query_vertices,
           int num_query_edges)
    : ops_(std::move(ops)),
      num_query_vertices_(num_query_vertices),
      num_query_edges_(num_query_edges) {
  APLUS_CHECK_GE(ops_.size(), 2u) << "plan needs at least a scan and a sink";
  for (size_t i = 0; i + 1 < ops_.size(); ++i) ops_[i]->set_next(ops_[i + 1].get());
}

const char* ToString(QueryOutcome::Status status) {
  switch (status) {
    case QueryOutcome::Status::kOk:
      return "OK";
    case QueryOutcome::Status::kParseError:
      return "PARSE_ERROR";
    case QueryOutcome::Status::kPlanError:
      return "PLAN_ERROR";
    case QueryOutcome::Status::kBindError:
      return "BIND_ERROR";
    case QueryOutcome::Status::kInvalidated:
      return "INVALIDATED";
    case QueryOutcome::Status::kExecError:
      return "EXEC_ERROR";
    case QueryOutcome::Status::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case QueryOutcome::Status::kTimeout:
      return "TIMEOUT";
    case QueryOutcome::Status::kCancelled:
      return "CANCELLED";
    case QueryOutcome::Status::kOverloaded:
      return "OVERLOADED";
  }
  return "?";
}

QueryOutcome::Status StatusOf(StopReason reason) {
  switch (reason) {
    case StopReason::kNone:
    case StopReason::kLimit:
      return QueryOutcome::Status::kOk;
    case StopReason::kTimeout:
      return QueryOutcome::Status::kTimeout;
    case StopReason::kCancelled:
      return QueryOutcome::Status::kCancelled;
    case StopReason::kResourceExhausted:
      return QueryOutcome::Status::kResourceExhausted;
  }
  return QueryOutcome::Status::kExecError;
}

QueryOutcome Plan::Execute(int num_threads) {
  // Pin an epoch for the whole execution: the pool workers run strictly
  // inside the spawn/join window, so one pin on the calling thread keeps
  // every run/delta version probed by any replica alive until we return
  // (util/epoch.h). Nested pins (sub-plans run from OnBatch) are free.
  EpochGuard epoch_guard;
  int k = num_threads < 1 ? 1 : (num_threads > kMaxThreads ? kMaxThreads : num_threads);
  auto* scan = dynamic_cast<ScanOp*>(ops_.front().get());
  // Morsel dispatch partitions the driving scan; a plan led by anything
  // else (not produced by PlanBuilder/DpOptimizer) runs serially.
  if (scan == nullptr) k = 1;
  state_.Reset(num_query_vertices_, num_query_edges_);
  QueryOutcome out;
  if (k == 1) {
    ops_.front()->Run(&state_);
    out.count = state_.count;
  } else {
    out.count = RunParallel(k, scan);
  }
  if (token_ != nullptr) out.status = StatusOf(token_->reason());
  return out;
}

uint64_t Plan::RunParallel(int k, ScanOp* scan) {
  EnsureWorkers(k - 1);
  // A pinned scan is one vertex, one scan morsel: split the entries of
  // the first EXTEND's list instead. The list is fetched once, here,
  // and every worker enumerates that one slice, so a delta append or a
  // merge during the execution cannot shift entries between workers.
  // The slice stays valid under Execute's epoch guard; a delta-merged
  // one lives in the primary extend's scratch.
  const vertex_id_t pin = scan->pinned();
  auto* split = dynamic_cast<ExtendOp*>(ops_[1].get());
  const bool split_list = pin != kInvalidVertex && split != nullptr && split->enumerates();
  AdjListSlice slice;
  if (split_list) {
    if (!scan->Bind(&state_, pin)) return 0;
    const ListDescriptor& list = *split->lists().first;
    slice = list.Fetch(state_);
    auto [begin, end] = list.BoundedRange(slice);
    cursor_.Reset(begin, end, k, MorselCursor::kEntryMorsel, MorselCursor::kEntryMorsel);
  } else {
    auto [begin, end] = scan->ScanDomain();
    cursor_.Reset(begin, end, k, MorselCursor::kMinMorsel, MorselCursor::kMaxMorsel);
  }
  ThreadPool::Global().ParallelRun(k, [&](int w) {
    MatchState& st = state(w);
    st.Reset(num_query_vertices_, num_query_edges_);
    auto* s = static_cast<ScanOp*>(ops(w).front().get());
    if (split_list) {
      s->Bind(&st, pin);  // accepted above
      static_cast<ExtendOp*>(ops(w)[1].get())->RunEntries(&st, slice, &cursor_);
    } else {
      s->RunMorsels(&st, &cursor_);
    }
  });
  uint64_t total = 0;
  for (int w = 0; w < k; ++w) total += state(w).count;
  return total;
}

void Plan::EnsureWorkers(int num_replicas) {
  while (static_cast<int>(workers_.size()) < num_replicas) {
    WorkerPipeline worker;
    worker.ops.reserve(ops_.size());
    for (const auto& op : ops_) worker.ops.push_back(op->Clone());
    for (size_t i = 0; i + 1 < worker.ops.size(); ++i) {
      worker.ops[i]->set_next(worker.ops[i + 1].get());
    }
    for (const auto& op : worker.ops) op->SetExecContext(token_, budget_);
    workers_.push_back(std::move(worker));
  }
}

Operator* Plan::sink(int pipeline) {
  APLUS_DCHECK(pipeline >= 0 && pipeline < num_pipelines());
  return ops(pipeline).back().get();
}

void Plan::CollectParamSlots(ParamSlots* slots) {
  for (const auto& op : ops_) op->CollectParamSlots(slots);
  for (const WorkerPipeline& worker : workers_) {
    for (const auto& op : worker.ops) op->CollectParamSlots(slots);
  }
}

void Plan::SetExecContext(ExecToken* token, MemoryBudget* budget) {
  token_ = token;
  budget_ = budget;
  for (const auto& op : ops_) op->SetExecContext(token, budget);
  for (WorkerPipeline& worker : workers_) {
    for (const auto& op : worker.ops) op->SetExecContext(token, budget);
  }
}

PlanBuilder& PlanBuilder::Scan(int var, std::vector<QueryComparison> preds) {
  const QueryVertex& qv = query_->vertex(var);
  ops_.push_back(std::make_unique<ScanOp>(graph_, var, qv.label, qv.bound, std::move(preds)));
  return *this;
}

PlanBuilder& PlanBuilder::Extend(ListDescriptor list, std::vector<QueryComparison> residual,
                                 bool closing) {
  ops_.push_back(std::make_unique<ExtendOp>(graph_, std::move(list), std::move(residual),
                                            closing));
  return *this;
}

PlanBuilder& PlanBuilder::ExtendIntersect(std::vector<ListDescriptor> lists, int target_var,
                                          std::vector<QueryComparison> residual) {
  ops_.push_back(std::make_unique<ExtendIntersectOp>(graph_, std::move(lists), target_var,
                                                     std::move(residual)));
  return *this;
}

PlanBuilder& PlanBuilder::MultiExtend(std::vector<ListDescriptor> lists,
                                      std::vector<QueryComparison> residual) {
  ops_.push_back(std::make_unique<MultiExtendOp>(graph_, std::move(lists), std::move(residual)));
  return *this;
}

std::unique_ptr<Plan> PlanBuilder::Build() {
  return BuildWithSink(std::make_unique<ProjectSinkOp>(graph_, std::vector<ProjectColumn>{}, 1,
                                                       nullptr, /*row_budget=*/false));
}

std::unique_ptr<Plan> PlanBuilder::BuildWithSink(std::unique_ptr<Operator> sink) {
  APLUS_CHECK(sink != nullptr);
  ops_.push_back(std::move(sink));
  return std::make_unique<Plan>(std::move(ops_), query_->num_vertices(), query_->num_edges());
}

}  // namespace aplus
