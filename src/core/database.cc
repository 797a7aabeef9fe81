#include "core/database.h"

#include "storage/segment.h"
#include "util/epoch.h"
#include "util/logging.h"

namespace aplus {

namespace {

// The typed plan error for a pattern the subset DP cannot plan (its
// table has 2^n entries, its memo index 2m(m + 1)); empty when the
// pattern fits.
std::string PatternSizeError(const QueryGraph& query) {
  const int n = query.num_vertices();
  if (n < 1 || n > DpOptimizer::kMaxQueryVertices) {
    return "pattern has " + std::to_string(n) + " query vertices; the optimizer plans 1 to " +
           std::to_string(DpOptimizer::kMaxQueryVertices);
  }
  const int m = query.num_edges();
  if (m > DpOptimizer::kMaxQueryEdges) {
    return "pattern has " + std::to_string(m) + " query edges; the optimizer plans at most " +
           std::to_string(DpOptimizer::kMaxQueryEdges);
  }
  return {};
}

// A QueryGraph as the parser would hand over a bare MATCH of it: no
// parameters, no RETURN, so it prepares into a counting projection.
ParsedCypher BareMatch(const QueryGraph& query) {
  ParsedCypher parsed;
  parsed.query = query;
  return parsed;
}

// The one-shot tail shared by ExecuteCypher and Execute(QueryGraph).
QueryOutcome ExecuteOnce(PreparedQuery* prepared, RowConsumer* consumer, int num_threads) {
  QueryOutcome out = prepared->Execute(consumer, num_threads);
  if (out.ok()) out.plan = prepared->plan_text();
  return out;
}

std::string ExplainPrepared(const PreparedQuery& prepared) {
  if (!prepared.ok()) return "(error: " + prepared.error() + ")";
  return prepared.plan_text();
}

}  // namespace

Database::Database(Graph graph, const EngineConfig& config)
    : config_(config), graph_(std::move(graph)) {
  store_ = std::make_unique<IndexStore>(&graph_);
  maintainer_ = std::make_unique<Maintainer>(&graph_, store_.get());
  admission_.Configure(config_.admission);
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
  if (concurrent_ingest_active() || segment_backed()) {
    // Sealed packed pages hold no flat arrays for SealSegment to copy.
    if (error != nullptr) {
      *error = segment_backed() ? "seal: the database is already segment-backed"
                                : "seal: concurrent ingest is active";
    }
    return false;
  }
  if (store_->HasPendingUpdates()) store_->FlushAll();
  return SealSegment(graph_, *store_, path, config_.segment_compress, error);
}

std::unique_ptr<Database> Database::OpenFromSegment(const std::string& path, std::string* error,
                                                    const EngineConfig& config) {
  std::unique_ptr<Segment> segment = aplus::OpenSegment(path, error);
  if (segment == nullptr) return nullptr;
  // The mapped graph moves into the database; its columns and the index
  // page views point into the mapping, which stays owned by the segment.
  auto db = std::make_unique<Database>(std::move(segment->graph()), config);
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
  // Reject an unbuildable partitioning before any index is touched.
  std::vector<uint32_t> fanouts;
  uint32_t fanout_product = 1;
  if (!ResolveFanouts(graph_.catalog(), cmd.config.partitions, &fanouts, &fanout_product,
                      &result.message)) {
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

bool Database::PlanStale(uint64_t store_version, uint64_t num_edges) const {
  const uint64_t now = graph_.num_edges();
  return store_version != store_->version() || now < num_edges || now > num_edges * 2;
}

DpOptimizer* Database::CachedOptimizer() {
  // The optimizer's catalog statistics are a cost model, not a
  // correctness input, so ingest does not have to rebuild it per edge:
  // it refreshes under the same rule that re-plans cached queries. This
  // keeps Prepare cheap while updates stream in.
  if (optimizer_ == nullptr || PlanStale(optimizer_store_version_, optimizer_num_edges_)) {
    optimizer_ = std::make_unique<DpOptimizer>(&graph_, store_.get());
    optimizer_store_version_ = store_->version();
    optimizer_num_edges_ = graph_.num_edges();
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
  ParsedCypher parsed = ParseCypher(text, graph_.catalog());
  if (parsed.ok()) return PrepareParsed(std::move(parsed), options);
  std::unique_ptr<PreparedQuery> prepared(new PreparedQuery(this));
  prepared->status_ = QueryOutcome::Status::kParseError;
  prepared->error_ = std::move(parsed.error);
  return prepared;
}

std::unique_ptr<PreparedQuery> Database::PrepareParsed(ParsedCypher parsed,
                                                       const PrepareOptions& options) {
  std::unique_ptr<PreparedQuery> prepared(new PreparedQuery(this));
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
  std::lock_guard<std::mutex> lock(prepare_mu_);
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
  prepared->steps_ = optimizer->last_outline();
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
  clone->steps_ = src.steps_;
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

QueryOutcome Database::Execute(const QueryGraph& query, int num_threads) {
  return ExecuteOnce(PrepareParsed(BareMatch(query), {}).get(), nullptr, num_threads);
}

QueryOutcome Database::ExecuteCypher(const std::string& text, RowConsumer* consumer) {
  return ExecuteOnce(Prepare(text).get(), consumer, 1);
}

std::string Database::Explain(const QueryGraph& query) {
  return ExplainPrepared(*PrepareParsed(BareMatch(query), {}));
}

std::string Database::Explain(const std::string& text) { return ExplainPrepared(*Prepare(text)); }

}  // namespace aplus
