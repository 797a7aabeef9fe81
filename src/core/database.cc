#include "core/database.h"

#include <cstdlib>

#include "optimizer/plan_printer.h"
#include "storage/segment.h"
#include "util/epoch.h"
#include "util/logging.h"

namespace aplus {

namespace {

int IntFromEnvOr(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  long v = std::strtol(env, nullptr, 10);
  if (v < 0) return fallback;
  return static_cast<int>(v);
}

int64_t Int64FromEnvOr(const char* name, int64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  long long v = std::strtoll(env, &end, 10);
  if (end == env || v < 0) return fallback;
  return static_cast<int64_t>(v);
}

// The typed plan error for a pattern the subset DP cannot plan (its
// table has 2^n entries); empty when the pattern fits.
std::string PatternSizeError(const QueryGraph& query) {
  const int n = query.num_vertices();
  if (n >= 1 && n <= DpOptimizer::kMaxQueryVertices) return {};
  return "pattern has " + std::to_string(n) + " query vertices; the optimizer plans 1 to " +
         std::to_string(DpOptimizer::kMaxQueryVertices);
}

}  // namespace

Database::Database(Graph graph) : graph_(std::move(graph)) {
  store_ = std::make_unique<IndexStore>(&graph_);
  maintainer_ = std::make_unique<Maintainer>(&graph_, store_.get());
  // Optional admission control (disabled unless APLUS_MAX_CONCURRENT is
  // set): queue depth defaults to the slot count, queue wait to 100 ms.
  const int max_concurrent = IntFromEnvOr("APLUS_MAX_CONCURRENT", 0);
  if (max_concurrent > 0) {
    AdmissionConfig config;
    config.max_concurrent = max_concurrent;
    config.max_queue = IntFromEnvOr("APLUS_ADMISSION_QUEUE", max_concurrent);
    config.queue_timeout_ms = IntFromEnvOr("APLUS_ADMISSION_TIMEOUT_MS", 100);
    admission_.Configure(config);
  }
}

Database::~Database() = default;

double Database::BuildPrimaryIndexes(const IndexConfig& config) {
  APLUS_CHECK(!segment_backed()) << "segment-backed primary indexes are immutable";
  return store_->BuildPrimary(config);
}

VpIndex* Database::CreateVpIndex(const std::string& name, const Predicate& pred,
                                 const IndexConfig& config, Direction dir, double* seconds) {
  if (segment_backed()) {
    APLUS_LOG(Error) << "secondary indexes are unsupported on a segment-backed database";
    return nullptr;
  }
  OneHopViewDef view;
  view.name = name;
  view.pred = pred;
  return store_->CreateVpIndex(view, config, dir, seconds);
}

EpIndex* Database::CreateEpIndex(const std::string& name, EpKind kind, const Predicate& pred,
                                 const IndexConfig& config, double* seconds,
                                 size_t budget_bytes) {
  if (segment_backed()) {
    APLUS_LOG(Error) << "secondary indexes are unsupported on a segment-backed database";
    return nullptr;
  }
  TwoHopViewDef view;
  view.name = name;
  view.kind = kind;
  view.pred = pred;
  return store_->CreateEpIndex(view, config, seconds, budget_bytes);
}

bool Database::SealToSegment(const std::string& path, std::string* error) {
  if (concurrent_ingest_active()) {
    if (error != nullptr) *error = "seal: concurrent ingest is active";
    return false;
  }
  if (store_->HasPendingUpdates()) store_->FlushAll();
  return SealSegment(graph_, *store_, path, error);
}

std::unique_ptr<Database> Database::OpenFromSegment(const std::string& path, std::string* error) {
  std::unique_ptr<Segment> segment = aplus::OpenSegment(path, error);
  if (segment == nullptr) return nullptr;
  // The graph moves into the database; index page views point into the
  // mapping, which stays owned by the segment.
  std::unique_ptr<Database> db(new Database(std::move(segment->graph())));
  for (Direction dir : {Direction::kFwd, Direction::kBwd}) {
    SegmentIndexPart& part = segment->part(dir);
    db->store_->AttachSegment(dir, part.config, std::move(part.pages), part.num_edges);
  }
  db->segment_ = std::move(segment);
  return db;
}

DdlResult Database::ExecuteDdl(const std::string& command) {
  DdlResult result;
  if (segment_backed()) {
    result.message = "segment-backed database is immutable: DDL rejected";
    return result;
  }
  DdlCommand cmd = ParseDdl(command, graph_.catalog());
  if (!cmd.ok()) {
    result.message = cmd.error;
    return result;
  }
  switch (cmd.kind) {
    case DdlCommand::Kind::kReconfigure: {
      result.seconds = BuildPrimaryIndexes(cmd.config);
      result.ok = true;
      result.message = "primary indexes reconfigured: " + cmd.config.ToString(graph_.catalog());
      return result;
    }
    case DdlCommand::Kind::kCreateVp: {
      double total = 0.0;
      double seconds = 0.0;
      if (cmd.fwd) {
        CreateVpIndex(cmd.view_name, cmd.pred, cmd.config, Direction::kFwd, &seconds);
        total += seconds;
      }
      if (cmd.bwd) {
        CreateVpIndex(cmd.view_name, cmd.pred, cmd.config, Direction::kBwd, &seconds);
        total += seconds;
      }
      result.seconds = total;
      result.ok = true;
      result.message = "created vertex-partitioned index " + cmd.view_name;
      return result;
    }
    case DdlCommand::Kind::kCreateEp: {
      CreateEpIndex(cmd.view_name, cmd.ep_kind, cmd.pred, cmd.config, &result.seconds);
      result.ok = true;
      result.message = "created edge-partitioned index " + cmd.view_name + " (" +
                       std::string(ToString(cmd.ep_kind)) + ")";
      return result;
    }
  }
  result.message = "unreachable";
  return result;
}

DpOptimizer* Database::CachedOptimizer() {
  // The optimizer's catalog statistics are a cost model, not a
  // correctness input, so ingest does not have to rebuild it per edge:
  // refresh on DDL (version bump), on shrinkage, or once the graph has
  // grown enough (2x) that its cardinality estimates are meaningfully
  // stale. This keeps Prepare cheap while updates stream in.
  uint64_t num_edges = graph_.num_edges();
  bool stale = optimizer_ == nullptr || optimizer_store_version_ != store_->version() ||
               num_edges < optimizer_num_edges_ || num_edges > optimizer_num_edges_ * 2;
  if (stale) {
    optimizer_ = std::make_unique<DpOptimizer>(&graph_, store_.get());
    optimizer_store_version_ = store_->version();
    optimizer_num_edges_ = num_edges;
  }
  return optimizer_.get();
}

void Database::BeginConcurrentIngest(const ConcurrentIngestOptions& options) {
  APLUS_CHECK(!segment_backed()) << "concurrent ingest is unsupported on a segment-backed database";
  APLUS_CHECK(!concurrent_ingest_active()) << "concurrent ingest is already active";
  APLUS_CHECK_GE(options.max_vertices, graph_.num_vertices());
  APLUS_CHECK_GE(options.max_edges, graph_.num_edges());
  // Start from exact indexes so the run+delta views only ever lag by the
  // currently buffered deltas.
  if (store_->HasPendingUpdates()) store_->FlushAll();
  graph_.ReserveForIngest(options.max_vertices, options.max_edges);
  store_->PrepareForConcurrentIngest(options.max_vertices);
  maintainer_->EnterConcurrentMode(options.background_merge);
  ingest_active_.store(true, std::memory_order_release);
}

void Database::EndConcurrentIngest() {
  APLUS_CHECK(concurrent_ingest_active()) << "concurrent ingest is not active";
  // Flush deltas first (ExitConcurrentMode), then wait for every reader
  // to drain so the retired runs can be freed.
  maintainer_->ExitConcurrentMode();
  EpochManager::Global().DrainAndReclaimAll();
  graph_.EndIngestReservation();
  ingest_active_.store(false, std::memory_order_release);
}

std::unique_ptr<PreparedQuery> Database::Prepare(const std::string& text,
                                                 const PrepareOptions& options) {
  std::unique_ptr<PreparedQuery> prepared(new PreparedQuery(this));
  prepared->normalized_text_ = NormalizeQueryText(text);
  ParsedCypher parsed = ParseCypher(text, graph_.catalog());
  if (!parsed.ok()) {
    prepared->status_ = QueryOutcome::Status::kParseError;
    prepared->error_ = parsed.error;
    return prepared;
  }
  prepared->query_ = std::move(parsed.query);
  prepared->error_ = PatternSizeError(prepared->query_);
  if (!prepared->error_.empty()) {
    prepared->status_ = QueryOutcome::Status::kPlanError;
    return prepared;
  }
  prepared->has_limit_ = parsed.has_limit;
  prepared->limit_ = parsed.limit;
  for (const CypherParam& param : parsed.params) {
    PreparedQuery::ParamInfo info;
    info.name = param.name;
    info.expected = param.expected;
    info.key = param.key;
    info.pin_var = param.pin_var;
    prepared->params_.push_back(std::move(info));
  }
  // Placeholder-pin every `<var>.ID = $p` vertex so the optimizer plans
  // around a pinned vertex; Bind patches the literal id into the plan.
  for (int v = 0; v < prepared->query_.num_vertices(); ++v) {
    if (prepared->query_.vertex(v).bound_param >= 0) {
      prepared->query_.mutable_vertex(v).bound = 0;
    }
  }
  // --- Result-path construction: projected input columns plus the sink
  // stage chain Project -> [GroupedAggregate] -> [Sort] -> [Limit]. ---
  auto type_of_ref = [this](const QueryPropRef& ref) {
    return ref.is_id ? ValueType::kInt64 : graph_.catalog().property(ref.key).type;
  };
  auto project_col = [&type_of_ref](const ReturnItem& item) {
    return ProjectColumn{item.name, item.ref, type_of_ref(item.ref)};
  };
  const bool has_agg = parsed.has_aggregate;
  const bool has_order = !parsed.order_by.empty();
  const bool distinct = parsed.distinct;  // never true with has_agg (parser rejects)
  // Bare `RETURN COUNT(*)` (no grouping, no ordering): the answer is the
  // match count the counting sink already maintains, so the plan gets a
  // stage-less, column-less ProjectSinkOp (no row materialization at
  // all) and Execute synthesizes the single output row afterwards.
  const bool count_star_only = has_agg && !has_order && parsed.returns.size() == 1 &&
                               parsed.returns[0].agg == AggFn::kCount &&
                               parsed.returns[0].star;
  std::vector<ProjectColumn> inputs;   // what the ProjectSinkOp materializes
  std::vector<std::unique_ptr<SinkStage>> stages;
  if (count_star_only) {
    ProjectColumn out_col;
    out_col.name = parsed.returns[0].name;
    out_col.type = ValueType::kInt64;
    prepared->columns_.push_back(std::move(out_col));
    prepared->count_star_only_ = true;
    prepared->count_row_.Init(prepared->columns_, 1);
  } else if (!has_agg && !has_order && !distinct) {
    // Plain projection (or a bare-MATCH count): the input columns are the
    // output columns, no stages, LIMIT stays on the atomic-budget fast
    // path.
    for (const ReturnItem& item : parsed.returns) inputs.push_back(project_col(item));
    prepared->columns_ = inputs;
  } else {
    std::vector<ProjectColumn> out_schema;  // one column per RETURN item
    if (has_agg) {
      // Inputs deduplicate by reference: group keys and aggregate
      // arguments sharing a ref read one projected column.
      auto input_index_of = [&inputs, &project_col](const ReturnItem& item) {
        for (size_t i = 0; i < inputs.size(); ++i) {
          if (inputs[i].ref == item.ref) return static_cast<int>(i);
        }
        inputs.push_back(project_col(item));
        return static_cast<int>(inputs.size() - 1);
      };
      std::vector<AggSpec> specs;
      for (const ReturnItem& item : parsed.returns) {
        AggSpec spec;
        spec.fn = item.agg;
        spec.name = item.name;
        if (item.agg == AggFn::kNone) {
          spec.input = input_index_of(item);
          spec.out_type = type_of_ref(item.ref);
        } else if (item.star) {
          spec.input = -1;  // COUNT(*): no argument column
          spec.out_type = ValueType::kInt64;
        } else {
          spec.input = input_index_of(item);
          ValueType in = type_of_ref(item.ref);
          switch (item.agg) {
            case AggFn::kCount:
              spec.out_type = ValueType::kInt64;
              break;
            case AggFn::kAvg:
              spec.out_type = ValueType::kDouble;
              break;
            default:  // SUM / MIN / MAX keep the argument type
              spec.out_type = in;
              break;
          }
        }
        ProjectColumn out_col;
        out_col.name = spec.name;
        out_col.type = spec.out_type;
        out_schema.push_back(std::move(out_col));
        specs.push_back(std::move(spec));
      }
      std::vector<ValueType> input_types;
      input_types.reserve(inputs.size());
      for (const ProjectColumn& col : inputs) input_types.push_back(col.type);
      stages.push_back(std::make_unique<GroupedAggregateStage>(
          std::move(specs), std::move(input_types), options.batch_rows,
          &prepared->controls_));
    } else {
      // ORDER BY over a plain projection: inputs stay in RETURN order
      // (they are the output schema), no dedup.
      for (const ReturnItem& item : parsed.returns) {
        inputs.push_back(project_col(item));
        ProjectColumn out_col;
        out_col.name = item.name;
        out_col.type = type_of_ref(item.ref);
        out_schema.push_back(std::move(out_col));
      }
    }
    if (distinct) {
      // Dedup precedes ordering/limit: Project -> DISTINCT -> [Sort] ->
      // [Limit]. The stage is the all-group-keys degenerate aggregation,
      // so worker partials merge exactly under parallelism.
      stages.push_back(std::make_unique<DistinctStage>(out_schema, options.batch_rows,
                                                       &prepared->controls_));
    }
    if (has_order) {
      // The sort owns any LIMIT (top-k partial_sort emits exactly the
      // capped rows); a trailing LimitStage would only re-copy them.
      std::vector<SortKeySpec> keys;
      for (const OrderByItem& order : parsed.order_by) {
        keys.push_back(SortKeySpec{order.item, order.desc});
      }
      stages.push_back(std::make_unique<SortStage>(
          out_schema, std::move(keys), parsed.has_limit ? parsed.limit : SortStage::kNoLimit,
          options.batch_rows, &prepared->controls_));
    } else if (parsed.has_limit) {
      // LIMIT over an unordered aggregation: caps the emitted groups.
      stages.push_back(std::make_unique<LimitStage>(out_schema, parsed.limit,
                                                    options.batch_rows,
                                                    &prepared->controls_));
    }
    prepared->columns_ = std::move(out_schema);
  }
  prepared->has_stages_ = !stages.empty();
  // During concurrent ingest the probe paths merge deltas themselves;
  // flushing here would serialize Prepare against the ingest thread.
  if (!concurrent_ingest_active() && store_->HasPendingUpdates()) store_->FlushAll();
  DpOptimizer* optimizer = CachedOptimizer();
  auto sink = std::make_unique<ProjectSinkOp>(&graph_, std::move(inputs), options.batch_rows,
                                              &prepared->controls_, std::move(stages));
  std::unique_ptr<Plan> plan = optimizer->Optimize(prepared->query_, std::move(sink));
  if (plan == nullptr) {
    prepared->status_ = QueryOutcome::Status::kPlanError;
    prepared->error_ = "no plan found (disconnected or unsupported query)";
    return prepared;
  }
  prepared->plan_text_ = RenderPlanTree(
      prepared->query_, graph_.catalog(), optimizer->last_steps(),
      static_cast<ProjectSinkOp*>(plan->sink(0))->ChainLines());
  plan->SetExecContext(&prepared->controls_.token, &prepared->controls_.budget);
  prepared->plan_ = std::move(plan);
  prepared->RefreshSlots();
  prepared->store_version_ = store_->version();
  prepared->num_edges_ = graph_.num_edges();
  return prepared;
}

std::unique_ptr<PreparedQuery> Database::ClonePrepared(const PreparedQuery& src) {
  APLUS_CHECK(src.ok()) << "cannot clone a failed prepare: " << src.error();
  APLUS_CHECK(src.plan_ != nullptr);
  std::unique_ptr<PreparedQuery> clone(new PreparedQuery(this));
  clone->normalized_text_ = src.normalized_text_;
  clone->query_ = src.query_;
  clone->columns_ = src.columns_;
  clone->has_limit_ = src.has_limit_;
  clone->has_stages_ = src.has_stages_;
  clone->count_star_only_ = src.count_star_only_;
  clone->limit_ = src.limit_;
  clone->plan_text_ = src.plan_text_;
  clone->store_version_ = src.store_version_;
  clone->num_edges_ = src.num_edges_;
  clone->timeout_millis_ = src.timeout_millis_;
  clone->mem_cap_bytes_ = src.mem_cap_bytes_;
  for (const PreparedQuery::ParamInfo& param : src.params_) {
    PreparedQuery::ParamInfo info;
    info.name = param.name;
    info.expected = param.expected;
    info.key = param.key;
    info.pin_var = param.pin_var;
    clone->params_.push_back(std::move(info));  // unbound: each owner binds its own
  }
  if (clone->count_star_only_) clone->count_row_.Init(clone->columns_, 1);
  std::vector<std::unique_ptr<Operator>> ops;
  ops.reserve(src.plan_->primary_ops().size());
  for (const auto& op : src.plan_->primary_ops()) ops.push_back(op->Clone());
  // The cloned sink (and its stage chain) still charges/streams through
  // `src`'s ExecControls; re-point it before the clone ever runs.
  auto* sink = dynamic_cast<ProjectSinkOp*>(ops.back().get());
  APLUS_CHECK(sink != nullptr) << "prepared plan must end in a ProjectSinkOp";
  sink->RebindControls(&clone->controls_);
  auto plan = std::make_unique<Plan>(std::move(ops), src.plan_->num_query_vertices(),
                                     src.plan_->num_query_edges());
  plan->SetExecContext(&clone->controls_.token, &clone->controls_.budget);
  clone->plan_ = std::move(plan);
  clone->RefreshSlots();
  return clone;
}

QueryOutcome Database::Execute(const QueryGraph& query) {
  QueryOutcome out;
  out.error = PatternSizeError(query);
  if (!out.error.empty()) {
    out.status = QueryOutcome::Status::kPlanError;
    return out;
  }
  if (!concurrent_ingest_active() && store_->HasPendingUpdates()) store_->FlushAll();
  DpOptimizer* optimizer = CachedOptimizer();
  std::unique_ptr<Plan> plan = optimizer->Optimize(query);
  if (plan == nullptr) {
    out.status = QueryOutcome::Status::kPlanError;
    out.error = "no plan found (disconnected or unsupported query)";
    return out;
  }
  // Governance parity with the serving path: the programmatic
  // (QueryGraph) one-shot honors APLUS_QUERY_TIMEOUT_MS, APLUS_MEM_CAP
  // and APLUS_MEM_CAP_TOTAL too, so a whole binary — table benches
  // included — respects the caps, not just Session traffic.
  ExecToken token;
  MemoryBudget budget;
  const int64_t timeout_ms = Int64FromEnvOr("APLUS_QUERY_TIMEOUT_MS", 0);
  if (timeout_ms > 0) token.ArmDeadlineMillis(timeout_ms);
  const uint64_t mem_cap = static_cast<uint64_t>(Int64FromEnvOr("APLUS_MEM_CAP", 0));
  budget.Reset(mem_cap);
  MemoryBudget::SetProcessCeiling(
      static_cast<uint64_t>(Int64FromEnvOr("APLUS_MEM_CAP_TOTAL", 0)));
  plan->SetExecContext(&token, &budget);
  QueryResult result = RunPlan(plan.get());
  out.count = result.count;
  out.seconds = result.seconds;
  switch (token.reason()) {
    case StopReason::kTimeout:
      out.status = QueryOutcome::Status::kTimeout;
      out.error = "query deadline exceeded (APLUS_QUERY_TIMEOUT_MS=" +
                  std::to_string(timeout_ms) + " ms)";
      break;
    case StopReason::kResourceExhausted:
      out.status = QueryOutcome::Status::kResourceExhausted;
      out.error =
          "memory budget exceeded (APLUS_MEM_CAP=" + std::to_string(mem_cap) + " bytes)";
      break;
    default:
      break;
  }
  out.plan = RenderPlanTree(query, graph_.catalog(), optimizer->last_steps());
  return out;
}

QueryOutcome Database::ExecuteCypher(const std::string& text, RowConsumer* consumer) {
  std::unique_ptr<PreparedQuery> prepared = Prepare(text);
  QueryOutcome out = prepared->Execute(consumer);
  if (out.ok()) out.plan = prepared->plan_text();
  return out;
}

std::string Database::Explain(const QueryGraph& query) {
  std::string error = PatternSizeError(query);
  if (!error.empty()) return "(error: " + error + ")";
  if (!concurrent_ingest_active() && store_->HasPendingUpdates()) store_->FlushAll();
  DpOptimizer* optimizer = CachedOptimizer();
  std::unique_ptr<Plan> plan = optimizer->Optimize(query);
  if (plan == nullptr) return "(no plan)";
  return RenderPlanTree(query, graph_.catalog(), optimizer->last_steps());
}

std::string Database::Explain(const std::string& text) {
  std::unique_ptr<PreparedQuery> prepared = Prepare(text);
  if (!prepared->ok()) return "(error: " + prepared->error() + ")";
  return prepared->plan_text();
}

}  // namespace aplus
