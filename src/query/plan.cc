#include "query/plan.h"

#include "util/epoch.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace aplus {

Plan::Plan(std::vector<std::unique_ptr<Operator>> ops, int num_query_vertices,
           int num_query_edges)
    : ops_(std::move(ops)),
      num_query_vertices_(num_query_vertices),
      num_query_edges_(num_query_edges) {
  APLUS_CHECK_GE(ops_.size(), 2u) << "plan needs at least a scan and a sink";
  for (size_t i = 0; i + 1 < ops_.size(); ++i) ops_[i]->set_next(ops_[i + 1].get());
}

uint64_t Plan::ExecuteSerial(ScanOp* scan) {
  if (scan != nullptr) scan->set_morsel_cursor(nullptr);
  if (ExtendOp* deep = DeepExtend(0)) deep->set_entry_cursor(nullptr);
  state_.Reset(num_query_vertices_, num_query_edges_);
  ops_.front()->Run(&state_);
  return state_.count;
}

ExtendOp* Plan::DeepExtend(int w) {
  // Needs at least scan, extend, sink — and the extend must enumerate
  // through the instrumented loops.
  if (ops_.size() < 3) return nullptr;
  std::vector<std::unique_ptr<Operator>>& ops = w == 0 ? ops_ : workers_[w - 1].ops;
  auto* ext = dynamic_cast<ExtendOp*>(ops[1].get());
  if (ext == nullptr || !ext->CanDeepMorselize()) return nullptr;
  return ext;
}

uint64_t Plan::Execute(int num_threads) {
  WallTimer timer;
  // Pin an epoch for the whole execution: the pool workers run strictly
  // inside the spawn/join window, so one pin on the calling thread keeps
  // every run/delta version probed by any replica alive until we return
  // (util/epoch.h). Nested pins (sub-plans in sink callbacks) are free.
  EpochGuard epoch_guard;
  int k = num_threads < 1 ? 1 : (num_threads > kMaxThreads ? kMaxThreads : num_threads);
  auto* scan = dynamic_cast<ScanOp*>(ops_.front().get());
  // Morsel dispatch partitions the driving scan; a plan led by anything
  // else (not produced by PlanBuilder/DpOptimizer) runs serially.
  if (scan == nullptr) k = 1;
  uint64_t total = 0;
  if (k == 1) {
    total = ExecuteSerial(scan);
  } else {
    EnsureWorkers(k - 1);
    auto [begin, end] = scan->ScanDomain();
    // Tiny scan domain (e.g. a $src-pinned scan of one vertex): scan
    // morsels would starve all but a few workers, so push the work split
    // one stage deeper — every replica runs the full scan and the first
    // EXTEND's entry domain is claimed block-wise through entry_cursor_.
    bool deep = (end - begin) < kDeepMorselFactor * static_cast<uint64_t>(k) &&
                DeepExtend(0) != nullptr;
    if (deep) {
      entry_cursor_.Reset();
    } else {
      cursor_.Reset(begin, end, k);
    }
    // Wire both split points explicitly on every pipeline that will run:
    // the mode can flip between Execute calls (thread count changes, a
    // $param re-bind unpinning the scan), and replicas persist across
    // calls with their previous wiring.
    for (int w = 0; w < k; ++w) {
      auto* s = w == 0 ? scan
                       : dynamic_cast<ScanOp*>(workers_[w - 1].ops.front().get());
      s->set_morsel_cursor(deep ? nullptr : &cursor_);
      if (ExtendOp* ext = DeepExtend(w)) {
        ext->set_entry_cursor(deep ? &entry_cursor_ : nullptr);
        if (deep) ext->ResetEntryClaims();
      }
    }
    auto body = [this](int w) {
      MatchState& state = w == 0 ? state_ : workers_[w - 1].state;
      state.Reset(num_query_vertices_, num_query_edges_);
      Operator* root = w == 0 ? ops_.front().get() : workers_[w - 1].ops.front().get();
      root->Run(&state);
    };
    ThreadPool::Global().ParallelRun(k, body);
    total = state_.count;
    for (int w = 1; w < k; ++w) total += workers_[w - 1].state.count;
  }
  last_execute_seconds_ = timer.ElapsedSeconds();
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
    auto* scan = dynamic_cast<ScanOp*>(worker.ops.front().get());
    APLUS_CHECK(scan != nullptr);
    // cursor_ is a member, so the pointer stays valid across Execute
    // calls and replicas are wired up exactly once.
    scan->set_morsel_cursor(&cursor_);
    for (const auto& op : worker.ops) op->SetExecContext(token_, budget_);
    workers_.push_back(std::move(worker));
  }
}

Operator* Plan::sink(int pipeline) {
  APLUS_DCHECK(pipeline >= 0 && pipeline < num_pipelines());
  return pipeline == 0 ? ops_.back().get() : workers_[pipeline - 1].ops.back().get();
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

std::string Plan::Describe() const {
  std::string out;
  for (const auto& op : ops_) {
    out += op->Describe();
    out += "\n";
  }
  return out;
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

PlanBuilder& PlanBuilder::Filter(std::vector<QueryComparison> preds) {
  ops_.push_back(std::make_unique<FilterOp>(graph_, std::move(preds)));
  return *this;
}

std::unique_ptr<Plan> PlanBuilder::Build(std::function<void(const MatchState&)> callback) {
  return BuildWithSink(std::make_unique<SinkOp>(std::move(callback)));
}

std::unique_ptr<Plan> PlanBuilder::BuildWithSink(std::unique_ptr<Operator> sink) {
  APLUS_CHECK(sink != nullptr);
  ops_.push_back(std::move(sink));
  return std::make_unique<Plan>(std::move(ops_), query_->num_vertices(), query_->num_edges());
}

}  // namespace aplus
